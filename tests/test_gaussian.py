import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from blocksym import gaussian, processes
from blocksym.blocking import MultiplierSpec, make_blocks
from blocksym.gaussian import (
    CovarianceError,
    GaussianModel,
    RhoEstimate,
    draw_rho_samples,
    estimate_gaussian_model,
    pass_maxima,
    pass_rho_samples,
    estimate_rhos,
    kolmogorov_distance,
    rho_uncertainty,
    sample_gaussian_max,
    simulate_max_statistics,
)
from blocksym.processes import DgpSpec, longrun_covariance
from blocksym.seeding import STREAM_GAUSSIAN, substream
from conftest import tail_pass


def dkw_two_sample_bound(reps: int, alpha: float = 0.05) -> float:
    """Distribution-free level-alpha critical value for equal-size samples.

    From 2 exp(-2 eps^2 m n / (m + n)) <= alpha with m = n = reps.
    """
    return math.sqrt(math.log(2.0 / alpha) / reps)


RADEMACHER = MultiplierSpec("rademacher")
MA1_SIGNS_4x2 = DgpSpec("linear_process", n=4, p=2, coeffs=(1.0, 0.5),
                        innovation="rademacher")


def ma1_sample_gaps():
    """Distances in se of the mean squared plain and multiplier maxima of the
    rho samples from the exact MA(1) sign-panel lhs and mid (q = 2, b = 2)."""
    model = estimate_gaussian_model(MA1_SIGNS_4x2)
    samples = draw_rho_samples(MA1_SIGNS_4x2, make_blocks(4, 2), RADEMACHER, model,
                               20_000, seed=7)
    gaps = {}
    for name, exact in (("plain", 0.798828125), ("multiplier", 0.69677734375)):
        squared = (getattr(samples, name) / math.sqrt(MA1_SIGNS_4x2.n)) ** 2
        gaps[name] = abs(squared.mean() - exact) / (squared.std(ddof=1) / math.sqrt(len(squared)))
    return gaps


def pooled_gap(a, b):
    """The sup gap evaluated at every point of the concatenated pool at once."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, pooled, side="right") / a.size
                        - np.searchsorted(b, pooled, side="right") / b.size).max())


def both_sides_gap(a, b):
    """The sup gap evaluated at and just below every pooled point."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    return float(max(
        np.abs(np.searchsorted(a, pooled, side=side) / a.size
               - np.searchsorted(b, pooled, side=side) / b.size).max()
        for side in ("left", "right")))


def ks_oracle(a, b):
    """Brute-force sup over a dense evaluation of both step functions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    points = np.unique(np.concatenate([a, b]))
    zs = np.concatenate([points, points - 1e-9, points + 1e-9])
    gaps = [abs((a <= z).mean() - (b <= z).mean()) for z in zs]
    return max(gaps)


class TestKolmogorovDistance:
    def test_identical_samples(self):
        assert kolmogorov_distance([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0

    def test_disjoint_point_masses(self):
        assert kolmogorov_distance([1.0], [2.0]) == 1.0

    def test_half_overlap(self):
        # Direct enumeration: F_a jumps at 1, 2; F_b at 1, 3; the largest
        # gap is 1/2 on [2, 3).
        assert kolmogorov_distance([1.0, 2.0], [1.0, 3.0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_distance([], [1.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_distance([-1.0, 2.0], [1.0])

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
        b=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
    )
    def test_matches_oracle_and_symmetry(self, a, b):
        d = kolmogorov_distance(a, b)
        assert d == pytest.approx(ks_oracle(a, b), abs=1e-9)
        assert d == kolmogorov_distance(b, a)

    @settings(max_examples=80, deadline=None)
    @given(
        # A small integer set makes ties within and across samples common.
        a=st.lists(st.integers(0, 4), min_size=1, max_size=30),
        b=st.lists(st.integers(0, 4), min_size=1, max_size=30),
    )
    def test_matches_scipy_on_ties(self, a, b):
        a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
        d = kolmogorov_distance(a, b)
        with np.errstate(divide="ignore"):  # the p-value of one-point samples
            statistic = ks_2samp(a, b, method="asymp").statistic
        assert d == pytest.approx(statistic, abs=1e-12)
        # The gaps just below the pooled points add nothing, bit for bit.
        assert d == both_sides_gap(a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        # Rounded grids keep strictly-increasing transforms injective at
        # float precision (squaring subnormals would collapse ties).
        a=st.lists(st.floats(0.0, 10.0).map(lambda x: round(x, 3)),
                   min_size=1, max_size=12),
        b=st.lists(st.floats(0.0, 10.0).map(lambda x: round(x, 3)),
                   min_size=1, max_size=12),
    )
    def test_increasing_transform_invariance(self, a, b):
        d = kolmogorov_distance(a, b)
        for f in (lambda x: x**2, lambda x: np.expm1(x / 5.0), lambda x: 3.0 * x + 1):
            assert kolmogorov_distance(f(np.asarray(a)), f(np.asarray(b))) == pytest.approx(d)

    @settings(max_examples=120, deadline=None)
    @given(
        # Mostly a few half-integers, so ties within and across the samples
        # are common and tie runs cross slice ends.
        a=st.lists(st.integers(0, 6).map(lambda k: k / 2) | st.floats(0.0, 3.0),
                   min_size=1, max_size=40),
        b=st.lists(st.integers(0, 6).map(lambda k: k / 2) | st.floats(0.0, 3.0),
                   min_size=1, max_size=40),
        step=st.integers(1, 7),
    )
    def test_slices_match_pooled_gaps(self, a, b, step):
        # One search of b per slice of a's points, read at and just below
        # them: any slice length gives the gap over the whole pool, and the
        # gaps on both sides of every pooled point, bit for bit.
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gaussian, "_KS_SLICE", step)
            d = kolmogorov_distance(a, b)
        assert d == pooled_gap(a, b) == both_sides_gap(a, b)

    @settings(max_examples=80, deadline=None)
    @given(points=st.lists(st.integers(0, 5), min_size=1, max_size=40), data=st.data())
    def test_run_ends_are_right_searches(self, points, data):
        # Any slice, tie runs crossing either of its ends included.
        points = np.sort(np.asarray(points, dtype=float))
        lo = data.draw(st.integers(0, points.size - 1))
        hi = data.draw(st.integers(lo + 1, points.size))
        assert np.array_equal(gaussian._run_ends(points, lo, hi),
                              np.searchsorted(points, points[lo:hi], side="right"))

    @settings(max_examples=80, deadline=None)
    @given(points=st.lists(st.integers(0, 5), min_size=1, max_size=40), data=st.data())
    def test_run_starts_are_left_searches(self, points, data):
        # Any slice, tie runs crossing either of its ends included.
        points = np.sort(np.asarray(points, dtype=float))
        lo = data.draw(st.integers(0, points.size - 1))
        hi = data.draw(st.integers(lo + 1, points.size))
        assert np.array_equal(gaussian._run_starts(points, lo, hi),
                              np.searchsorted(points, points[lo:hi], side="left"))

    @pytest.mark.parametrize("case", ["lattice", "unequal", "sign-kind"])
    def test_matches_scipy_and_pooled_searches(self, case, monkeypatch):
        # Tied lattice samples of equal and unequal sizes, and the max
        # statistics of a sign kind, whose few values tie heavily. Slices of
        # 1000 points put tie runs across slice ends.
        rng = substream(317, 99)
        if case == "sign-kind":
            spec = DgpSpec("bounded_rademacher", n=4, p=2)
            plain, starred = simulate_max_statistics(spec, make_blocks(4, 2), RADEMACHER,
                                                     5000, seed=3)
            samples = (plain, starred)
            assert np.unique(plain).size <= 3
        else:
            sizes = (5000, 5000) if case == "lattice" else (3001, 7919)
            samples = tuple(rng.integers(0, 30, size) / 4.0 for size in sizes)
        monkeypatch.setattr(gaussian, "_KS_SLICE", 1000)
        d = kolmogorov_distance(*samples)
        assert d == pooled_gap(*samples) == kolmogorov_distance(*samples[::-1])
        assert d == pytest.approx(ks_2samp(*samples).statistic, abs=1e-12)

    def test_sorted_samples_need_no_full_length_temporaries(self):
        rng = substream(315, 99)
        a, b = (np.sort(np.abs(rng.standard_normal(100_000))) for _ in range(2))
        tracemalloc.start()
        try:
            kolmogorov_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 2

    def test_from_samples_sorts_each_sample_once(self, monkeypatch):
        # The pool's tasks: one in-place sort of a copy of each sample, then
        # the three distances.
        tasks = []
        pool_map = gaussian._pool_map

        def logged(fn, calls):
            tasks.append((fn, [[len(x) for x in args] for args in calls]))
            return pool_map(fn, calls)

        rng = substream(316, 99)
        samples = [np.abs(rng.standard_normal(m)) for m in (300, 301, 302)]
        copies = [x.copy() for x in samples]
        monkeypatch.setattr(gaussian, "_pool_map", logged)
        est = RhoEstimate.from_samples(*samples)
        assert tasks == [(np.ndarray.sort, [[300], [301], [302]]),
                         (gaussian._sorted_distance, [[300, 302], [301, 302], [300, 301]])]
        assert all(np.array_equal(x, y) for x, y in zip(samples, copies))
        # A sorted sample is neither copied nor sorted again.
        tasks.clear()
        kolmogorov_distance(np.sort(samples[0]), samples[1])
        assert tasks[0] == (np.ndarray.sort, [[301]])
        plain, starred, gauss = samples
        assert (est.rho, est.rho_star, est.rho_direct) == (
            pooled_gap(plain, gauss), pooled_gap(starred, gauss), pooled_gap(plain, starred))

    def test_distances_run_on_the_draw_pool(self, monkeypatch):
        # The distances are tasks on the pool; the calling thread only
        # waits for them.
        threads, distance = [], gaussian._sorted_distance

        def spy(*args):
            threads.append(threading.current_thread().name)
            return distance(*args)

        monkeypatch.setattr(gaussian, "_sorted_distance", spy)
        rng = substream(318, 99)
        RhoEstimate.from_samples(*(np.abs(rng.standard_normal(500)) for _ in range(3)))
        kolmogorov_distance([1.0, 2.0], [2.0, 3.0])
        assert len(threads) == 3 + 1
        assert all(name.startswith("blocksym-draw") for name in threads)

    def test_a_failing_distance_reaches_the_caller(self):
        with pytest.raises(ValueError, match=">= 0"):
            RhoEstimate.from_samples([1.0, 2.0], [-1.0, 2.0], [1.0, 3.0])

    def test_null_calibration(self):
        # Same-law pairs exceed the 1% two-sample bound in about 1% of
        # trials; with 200 trials the count should stay tiny.
        rng = substream(314, 99)
        m = 400
        crit = dkw_two_sample_bound(m, alpha=0.01)
        exceed = sum(
            kolmogorov_distance(np.abs(rng.standard_normal(m)),
                                np.abs(rng.standard_normal(m))) > crit
            for _ in range(200)
        )
        assert exceed <= 5


def equicorrelated_cov(p, v, c):
    """v ((1 - c) I + c 11^T) as a (p, p) matrix."""
    return v * ((1.0 - c) * np.eye(p) + c * np.ones((p, p)))


class TestGaussianModel:
    @pytest.mark.parametrize("kwargs, field", [
        (dict(p=2, parallel=-0.1, perp=1.0), "parallel"),
        (dict(p=2, parallel=1.0, perp=-1e-12), "perp"),
        (dict(p=2, parallel=math.nan, perp=1.0), "parallel"),
        (dict(p=2, parallel=1.0, perp=math.inf), "perp"),
        (dict(p=2, parallel="1.0", perp=1.0), "parallel"),
        (dict(p=0, parallel=1.0, perp=1.0), "p"),
        (dict(p=2.0, parallel=1.0, perp=1.0), "p"),
        (dict(p=2, parallel=10**400, perp=1.0), "parallel"),
    ], ids=["parallel-negative", "perp-negative", "parallel-nan", "perp-inf",
            "parallel-string", "p-zero", "p-float", "parallel-past-the-float-range"])
    def test_range_check_names_the_field(self, kwargs, field):
        with pytest.raises(CovarianceError, match=f"^{field}: "):
            GaussianModel(**kwargs)

    def test_zero_variance_draws_zero(self):
        model = GaussianModel(3, 0.0, 0.0)
        assert np.all(sample_gaussian_max(model, 50, seed=1) == 0.0)


class TestSampleGaussianMax:
    def test_half_normal_mean(self):
        draws = sample_gaussian_max(GaussianModel(1, 1.0, 1.0), 100_000, seed=3)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - math.sqrt(2.0 / math.pi)) < 4 * se

    def test_perfectly_correlated_pair_matches_scalar(self):
        ones = GaussianModel(2, 2.0, 0.0)
        scalar = GaussianModel(1, 1.0, 1.0)
        m = 20_000
        a = sample_gaussian_max(ones, m, seed=5)
        b = sample_gaussian_max(scalar, m, seed=6)
        assert kolmogorov_distance(a, b) < dkw_two_sample_bound(m, alpha=0.05)

    @pytest.mark.parametrize("p, v, c", [(3, 1.7, -0.4), (20, 0.8, 0.6)])
    def test_law_matches_cholesky_reference(self, p, v, c):
        # max |Z| against Z = L g, L the Cholesky factor of the covariance,
        # at a negative and a positive correlation.
        m = 200_000
        cov = equicorrelated_cov(p, v, c)
        model = GaussianModel(p, v * (1.0 + (p - 1) * c), v * (1.0 - c))
        reference = np.abs(np.random.default_rng(7).standard_normal((m, p))
                           @ np.linalg.cholesky(cov).T).max(axis=1)
        assert kolmogorov_distance(sample_gaussian_max(model, m, seed=8), reference) \
            < dkw_two_sample_bound(m, alpha=1e-4)

    @pytest.mark.parametrize("spec", [
        DgpSpec("iid_gaussian", n=8, p=5),
        DgpSpec("var1", n=16, p=20, phi=0.5),
        DgpSpec("linear_process", n=8, p=7, coeffs=(1.0, 0.5, -0.25)),
        DgpSpec("bounded_rademacher", n=8, p=3, scale=1.7),
    ], ids=lambda spec: spec.kind)
    def test_uncorrelated_analytic_model_scales_its_normals(self, spec):
        # With cross_corr 0 the draws are sqrt(v) times the normals of the
        # Gaussian substream, bit for bit.
        v = longrun_covariance(spec)[0]
        g = substream(9, STREAM_GAUSSIAN).standard_normal((500, spec.p))
        assert np.array_equal(sample_gaussian_max(estimate_gaussian_model(spec), 500, seed=9),
                              np.abs(math.sqrt(v) * g).max(axis=1))

    def test_draw_count_validation(self):
        with pytest.raises(ValueError):
            sample_gaussian_max(GaussianModel(1, 1.0, 1.0), 0, seed=0)

    @pytest.mark.parametrize("rows", [1, 5, 23, 64])
    @pytest.mark.parametrize("p, c", [(3, 0.0), (7, 0.4), (40, -0.02)])
    def test_chunks_match_one_whole_draw(self, p, c, rows, monkeypatch):
        # Chunks of ``rows`` rows, the last one short unless they divide 23:
        # the maxima of one (23, p) draw of the Gaussian substream,
        # equicorrelated whole, bit for bit.
        model = GaussianModel(p, 1.3 * (1.0 + (p - 1) * c), 1.3 * (1.0 - c))
        z = substream(11, STREAM_GAUSSIAN).standard_normal((23, p))
        processes._equicorrelate(z, model.parallel, model.perp)
        monkeypatch.setattr(gaussian, "_CHUNK_BYTES", rows * p * 8)
        assert np.array_equal(sample_gaussian_max(model, 23, seed=11), np.abs(z).max(axis=1))

    def test_holds_one_chunk_of_draws(self):
        # 2000 draws at p = 1000 are 16 MB whole; the sample holds one
        # ``_CHUNK_BYTES`` chunk (1 MiB) and its 2000 maxima.
        model = GaussianModel(1000, 1.5, 0.9)
        tracemalloc.start()
        try:
            sample_gaussian_max(model, 2000, seed=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * processes._CHUNK_BYTES


class TestEstimateGaussianModel:
    def test_analytic_identity(self):
        model = estimate_gaussian_model(DgpSpec("iid_gaussian", n=8, p=2))
        assert model == GaussianModel(2, 1.0, 1.0)

    def test_analytic_equicorrelated(self):
        spec = DgpSpec("linear_process", n=8, p=4, coeffs=(1.0, 0.5), cross_corr=-0.2)
        v = longrun_covariance(spec)[0]
        model = estimate_gaussian_model(spec)
        eigenvalues = np.linalg.eigvalsh(equicorrelated_cov(4, v, -0.2))
        assert (model.perp, model.parallel) == pytest.approx(
            (eigenvalues[-1], eigenvalues[0]), rel=1e-12)

    @pytest.mark.parametrize("cross_corr", [0.0, 0.3, -0.2])
    def test_clipped_model_reads_the_cross_covariance(self, cross_corr):
        # Clipping bends the cross-coordinate correlation, so the clipped
        # autoregression's eigenvalues come from its own v_c, not from
        # cross_corr times v; at cross_corr 0 the coordinates are
        # independent and the two eigenvalues are v.
        spec = DgpSpec("truncated_var1", n=32, p=5, phi=0.8, truncation=1.0,
                       cross_corr=cross_corr)
        v, cross = longrun_covariance(spec)
        model = estimate_gaussian_model(spec)
        assert (model.parallel, model.perp) == (v + 4 * cross, v - cross)
        if cross_corr == 0.0:
            assert cross == 0.0 and model.parallel == model.perp == v
        else:
            assert 0 < cross / (cross_corr * v) < 1

    def test_model_draws_nothing(self, monkeypatch):
        from blocksym import blocking

        monkeypatch.setattr(blocking, "stream_statistics", None)
        monkeypatch.setattr(gaussian, "stream_statistics", None)
        spec = DgpSpec("truncated_var1", n=128, p=20, phi=0.5, truncation=3.0)
        assert estimate_gaussian_model(spec).p == 20


class TestEstimateRhos:
    @pytest.mark.parametrize("b", [1, 4])
    def test_exact_gaussian_case_below_bound(self, b):
        # Sign multipliers on Gaussian panels leave the law unchanged for
        # any block length; b=1 is the classic independence reduction.
        spec = DgpSpec("iid_gaussian", n=16, p=2)
        model = estimate_gaussian_model(spec)
        scheme = make_blocks(16, b)
        reps = 20_000
        rho = estimate_rhos(spec, scheme, RADEMACHER, model, reps, seed=21)
        crit = dkw_two_sample_bound(reps, alpha=0.05)
        assert rho.rho < crit
        assert rho.rho_star < crit

    def test_model_of_another_dimension_is_rejected(self, monkeypatch):
        # A model for p = 50 used on p = 3 panels once gave rho 0.80; the
        # dimensions are checked before anything is drawn.
        from blocksym import blocking

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a pass")

        monkeypatch.setattr(blocking, "substream_keys", no_draw)
        spec = DgpSpec("iid_gaussian", n=16, p=3)
        for draw in (draw_rho_samples, estimate_rhos):
            with pytest.raises(ValueError, match="p=50 .* p=3"):
                draw(spec, make_blocks(16, 4), RADEMACHER, GaussianModel(50, 1.0, 1.0),
                     1000, 0)

    def test_deterministic(self):
        spec = DgpSpec("var1", n=16, p=2, phi=0.5)
        model = estimate_gaussian_model(spec)
        scheme = make_blocks(16, 4)
        a = estimate_rhos(spec, scheme, RADEMACHER, model, 2000, seed=4)
        b = estimate_rhos(spec, scheme, RADEMACHER, model, 2000, seed=4)
        assert (a.rho, a.rho_star, a.rho_direct) == (b.rho, b.rho_star, b.rho_direct)

    def test_triangle_inequality_invariant(self):
        spec = DgpSpec("var1", n=32, p=3, phi=0.5)
        model = estimate_gaussian_model(spec)
        scheme = make_blocks(32, 8)
        rho = estimate_rhos(spec, scheme, RADEMACHER, model, 4000, seed=8)
        assert rho.rho_direct <= rho.rho + rho.rho_star + 2 * rho.se

    def test_reported_uncertainty_formula(self):
        assert rho_uncertainty(10_000) == pytest.approx(
            2.0 * math.sqrt(math.log(2.0 / 0.05) / 20_000.0)
        )

    def test_dependent_fixture(self):
        # Regression fixture, recorded once every block was drawn from an
        # SFC64 generator seeded through SeedSequence by the key of its first
        # replication, the panels' blocks of 1024 at this shape (Gaussian
        # blocks are drawn time-major, row t of every panel before row
        # t + 1): the blocked multiplier statistic sits measurably off the
        # Gaussian comparison law at this sample size, beyond the
        # distribution-free se, while the plain statistic is within one se.
        spec = DgpSpec("var1", n=128, p=4, phi=0.5)
        model = estimate_gaussian_model(spec)
        scheme = make_blocks(128, 8)
        rho = estimate_rhos(spec, scheme, RADEMACHER, model, 4000, seed=2026)
        assert rho.rho == pytest.approx(0.0125, abs=1e-12)
        assert rho.rho_star == pytest.approx(0.082, abs=1e-12)
        assert rho.rho < rho.se < rho.rho_star

    def test_samples_match_exact_ma1_chain(self):
        # rho_star reads the multiplier sample; its law must be the exact mid.
        gaps = ma1_sample_gaps()
        assert gaps["plain"] < 4 and gaps["multiplier"] < 4, gaps

    def test_rho_star_on_plain_statistic_is_caught(self, monkeypatch):
        # Negative control: the plain sample passed off as the multiplier
        # sample lands about 25 se from the exact mid.
        def plain_twice(*args, **kw):
            plain, _ = simulate_max_statistics(*args, **kw)
            return plain, plain

        monkeypatch.setattr(gaussian, "simulate_max_statistics", plain_twice)
        assert ma1_sample_gaps()["multiplier"] > 4

    def test_rho_estimate_validation(self):
        with pytest.raises(ValueError):
            RhoEstimate(rho=1.5, rho_star=0.0, rho_direct=0.0, reps=10, se=0.0)
        with pytest.raises(ValueError, match="rho_direct"):
            RhoEstimate(rho=0.0, rho_star=0.0, rho_direct=0.9, reps=10, se=0.0)

    def test_json_schema(self):
        rho = RhoEstimate(rho=0.1, rho_star=0.2, rho_direct=0.25, reps=100, se=0.1)
        assert rho.to_json_dict() == {
            "rho": 0.1, "rho_star": 0.2, "rho_direct": 0.25, "reps": 100, "se": 0.1,
        }


def test_rho_samples_and_distances_do_not_depend_on_the_worker_count(monkeypatch):
    # Ten blocks of the pass and slices of 1000 points, on one worker and
    # on sixteen: the same samples and the same distances, bit for bit.
    spec = DgpSpec("iid_gaussian", n=16, p=2)
    model = estimate_gaussian_model(spec)
    monkeypatch.setattr(gaussian, "_KS_SLICE", 1000)
    results = []
    for cpus in (1, 16):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)),
                            raising=False)
        samples = draw_rho_samples(spec, make_blocks(16, 4), RADEMACHER, model, 20_000, seed=5)
        results.append((samples, RhoEstimate.from_samples(*samples)))
    (one, estimate), (sixteen, again) = results
    assert all(np.array_equal(x, y) for x, y in zip(one, sixteen))
    assert estimate == again
    plain, starred, gauss = one
    assert (estimate.rho, estimate.rho_star, estimate.rho_direct) == (
        pooled_gap(plain, gauss), pooled_gap(starred, gauss), pooled_gap(plain, starred))


def test_simulate_statistics_paired_shapes():
    spec = DgpSpec("iid_gaussian", n=8, p=2)
    plain, starred = simulate_max_statistics(
        spec, make_blocks(8, 2), RADEMACHER, 500, seed=0
    )
    assert plain.shape == starred.shape == (500,)
    assert np.all(plain >= 0) and np.all(starred >= 0)


class TestPassRhoSamples:
    SPEC = DgpSpec("truncated_var1", n=16, p=3, phi=0.5, truncation=1.5)
    SCHEME = make_blocks(16, 4)

    def test_samples_of_a_tail_pass(self):
        # A run's rho samples: the tail pass's maxima on the sqrt(n) scale
        # and as many Gaussian maxima at the pass's seed.
        model = estimate_gaussian_model(self.SPEC)
        tail = tail_pass(self.SPEC, 1500, 4, scheme=self.SCHEME)
        samples = pass_rho_samples(tail, model)
        assert np.array_equal(samples.plain, 4.0 * tail.max_abs_mean)
        assert np.array_equal(samples.multiplier, 4.0 * tail.mult_max)
        assert np.array_equal(samples.gaussian, sample_gaussian_max(model, 1500, 4))
        assert all(np.array_equal(a, b) for a, b in zip(pass_maxima(tail), samples[:2]))

    def test_pass_without_multipliers_is_named(self):
        with pytest.raises(ValueError, match=r"multiplier statistic \(mult_max\)"):
            pass_maxima(tail_pass(self.SPEC, 100, 4))

    def test_model_of_another_dimension_is_rejected(self):
        other = estimate_gaussian_model(DgpSpec("iid_gaussian", n=16, p=4))
        with pytest.raises(ValueError, match="p=4 but the panels have p=3"):
            pass_rho_samples(tail_pass(self.SPEC, 100, 4, scheme=self.SCHEME), other)
