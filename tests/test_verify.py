import itertools
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksym import blocking, processes, verify
from blocksym.blocking import (
    Exceedances,
    MaxBelow,
    MultiplierSpec,
    PowerSums,
    batch_block_sums,
    batch_max_abs_mean,
    batch_multiplier_max,
    make_blocks,
    stream_statistics,
)
from blocksym.gaussian import RhoEstimate, estimate_gaussian_model, estimate_rhos
from blocksym.processes import MAX_BLOCK_REPS, DgpSpec
from blocksym.psi import PsiSpec, psi_eval, psi_moment_norm
from blocksym.remainders import TailParams, concentration_lq, remainder_R2
from blocksym.seeding import (PURPOSE_DEFAULT, PURPOSE_LHS, PURPOSE_MID, PURPOSE_NORM,
                              PURPOSE_TAIL, STREAM_PANEL)
from blocksym.verify import (
    hoeffding_factor,
    EnumerationBudgetError,
    ExactChain,
    NonFiniteGaugeError,
    exact_enumeration,
    mc_coordinate_mean_moment,
    mc_per_coordinate_tails,
    mc_tail_probability,
    tail_levels,
    theorem1_bound,
    verdict_for,
    verify_independence_reduction,
    verify_prop1,
    verify_prop2,
)
from conftest import (
    draw_panels,
    marginal_pass,
    mid_pass,
    pass_multipliers,
    run_prop1,
    run_prop2,
    run_theorem1,
    tail_pass,
)

RADEMACHER = MultiplierSpec("rademacher")
POWER1 = PsiSpec("power", q=1.0)
POWER2 = PsiSpec("power", q=2.0)
ZERO_LAW = DgpSpec("linear_process", n=8, p=2, coeffs=(0.0,))
SIGNS_2x1 = DgpSpec("bounded_rademacher", n=2, p=1)
SIGNS_4x2 = DgpSpec("bounded_rademacher", n=4, p=2)
MA1_SIGNS_4x2 = DgpSpec("linear_process", n=4, p=2, coeffs=(1.0, 0.5),
                        innovation="rademacher")


def zero_rho(reps=1000):
    return RhoEstimate(rho=0.0, rho_star=0.0, rho_direct=0.0, reps=reps, se=0.0)


class TestVerdicts:
    def test_bands(self):
        assert verdict_for(-0.1, 0.01) == "holds"
        assert verdict_for(0.02, 0.01) == "holds-within-noise"
        assert verdict_for(0.05, 0.01) == "violated"

    def test_two_sided(self):
        assert verdict_for(-0.05, 0.01, two_sided=True) == "violated"
        assert verdict_for(-0.02, 0.01, two_sided=True) == "holds-within-noise"

    def test_exact_mode_zero_se(self):
        assert verdict_for(0.0, 0.0) == "holds"
        assert verdict_for(1e-9, 0.0) == "violated"


class TestMcExpect:
    def test_zero_law_is_exactly_zero(self):
        scheme = make_blocks(8, 2)
        report = run_prop2(ZERO_LAW, scheme, POWER2, 1.0, 2.0,
                           2000, zero_rho(), seed=0)
        for est in (report.lhs, report.mid, report.rhs):
            assert est.mean == 0.0 and est.se == 0.0
        assert all(m.se == 0.0 for m in report.margins)

    def test_gaussian_mean_square(self):
        # Scalar iid Gaussian: E (column mean)^2 = 1/n, prop2's lhs at q = 2.
        spec = DgpSpec("iid_gaussian", n=64, p=1)
        scheme = make_blocks(64, 8)
        est = run_prop2(spec, scheme, POWER2, 1.0, 2.0, 20_000, zero_rho(),
                        seed=1).lhs
        assert abs(est.mean - 1.0 / 64.0) < 3 * est.se

    def test_unit_multipliers_match_plain_per_replication(self):
        rng = np.random.default_rng(0)
        panels = rng.standard_normal((100, 12, 3))
        scheme = make_blocks(12, 4)
        ones = np.ones((100, scheme.count))
        assert np.allclose(
            batch_multiplier_max(batch_block_sums(panels, scheme), ones, scheme.n),
            batch_max_abs_mean(panels),
        )

    def test_overflow_names_replication(self):
        # The independence reduction's gauge overflows on a few of these
        # panels; it must raise at the first of them, not report a violation.
        heavy = PsiSpec("exponential", a=200.0, b=3.0)
        spec = DgpSpec("iid_gaussian", n=4, p=1)
        stats = stream_statistics(spec, 2000, 2, PURPOSE_LHS, make_blocks(4, 1), RADEMACHER,
                                  copies=True)
        with np.errstate(over="ignore"):
            first = np.flatnonzero(np.isinf(np.expm1(200.0 * stats.mult_max**3)))[0]
        with pytest.raises(NonFiniteGaugeError, match=f"at replication {first}$"):
            verify_independence_reduction(spec, heavy, 2000, seed=2)

    def test_chain_overflow_names_replication(self):
        # Sign panels of scale 2 reach |mean| = 2, where expm1(200 x**3)
        # overflows, on one replication in eight.
        heavy = PsiSpec("exponential", a=200.0, b=3.0)
        spec = DgpSpec("bounded_rademacher", n=4, p=1, scale=2.0)
        with pytest.raises(NonFiniteGaugeError, match=r"at replication \d+$"):
            run_prop1(spec, make_blocks(4, 2), heavy, 2.0, 2000, zero_rho(),
                      seed=2)

    def test_reps_floor(self):
        for build in (lambda: run_prop1(SIGNS_4x2, make_blocks(4, 2), POWER2,
                                        1.0, 999, zero_rho(), seed=0),
                      lambda: run_theorem1(SIGNS_4x2, make_blocks(4, 2), 2.0,
                                           2.0, 1.0, 999, zero_rho(), seed=0)):
            with pytest.raises(ValueError, match="reps >= 1000"):
                build()


def brute_force_enumeration(spec, scheme, psi, scale=1.0):
    """Expectations over every whole panel and sign multiplier vector.

    The oracle for ``exact_enumeration``: it enumerates all n p panel signs
    of the random-sign kind, or all (n + lags) p innovations of the
    Rademacher linear process, filtered here by explicit lag sums. The
    outcome count 2**cells * 2**count must not exceed 2**24.
    """
    lags = len(spec.coeffs) - 1 if spec.kind == "linear_process" else 0
    rows = spec.n + lags
    cells = rows * spec.p
    n_panels = 2**cells
    n_eps = 2**scheme.count
    assert n_panels * n_eps <= 2**24
    eps_bits = (np.arange(n_eps)[:, None, None] >> np.arange(scheme.count)) & 1
    eps_all = 2.0 * eps_bits - 1.0  # (n_eps, 1, count): broadcasts over panels
    chunk = max(1, 2**18 // max(1, n_eps * spec.p))
    lhs_acc = 0.0
    mid_acc = 0.0
    for startfrom in range(0, n_panels, chunk):
        idx = np.arange(startfrom, min(startfrom + chunk, n_panels))
        bits = (idx[:, None] >> np.arange(cells)) & 1
        signs = (2.0 * bits - 1.0).reshape(-1, rows, spec.p)
        if spec.kind == "linear_process":
            panels = sum(a * signs[:, lags - j : lags - j + spec.n]
                         for j, a in enumerate(spec.coeffs))
        else:
            panels = signs * spec.scale
        lhs_acc += float(np.sum(psi_eval(psi, scale * batch_max_abs_mean(panels))))
        mstats = batch_multiplier_max(batch_block_sums(panels, scheme), eps_all, spec.n)
        mid_acc += float(np.sum(psi_eval(psi, scale * mstats)))
    lhs = lhs_acc / n_panels
    return ExactChain(lhs=lhs, mid=mid_acc / (n_panels * n_eps), rhs=lhs)


@st.composite
def small_enumerable(draw):
    """A sign-panel or Rademacher linear-process spec, scheme and scale whose
    brute-force outcome count is at most 2**16."""
    kind = draw(st.sampled_from(["bounded_rademacher", "linear_process"]))
    lags = draw(st.integers(0, 2)) if kind == "linear_process" else 0
    count = draw(st.integers(1, 4))
    b = draw(st.integers(1, (16 - count - lags) // count))
    n = b * count
    p = draw(st.integers(1, (16 - count) // (n + lags)))
    if kind == "linear_process":
        coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=lags + 1,
                               max_size=lags + 1))
        spec = DgpSpec(kind, n=n, p=p, coeffs=coeffs, innovation="rademacher")
    else:
        spec = DgpSpec(kind, n=n, p=p, scale=draw(st.floats(0.5, 2.0)))
    return spec, make_blocks(n, b), draw(st.floats(0.5, 2.0))


def ma1_mc_gap(mode):
    """Distance in se of prop1's lhs (``plain``) or mid (``multiplier``) from
    the exact MA(1) sign-panel value; U = 1.5 is the panel's support bound."""
    sch = make_blocks(4, 2)
    exact = exact_enumeration(MA1_SIGNS_4x2, sch, RADEMACHER, POWER2)
    report = run_prop1(MA1_SIGNS_4x2, sch, POWER2, 1.5, 20_000, zero_rho(),
                       seed=12)
    est, target = (report.lhs, exact.lhs) if mode == "plain" else (report.mid, exact.mid)
    return abs(est.mean - target) / est.se


def prop2_ma1_gaps():
    """Distances in se of prop2's mid and rhs from (1/2) E psi(2 .) of the exact
    MA(1) sign-panel chain: twice the exact mid and lhs for q = 2."""
    report = run_prop2(MA1_SIGNS_4x2, make_blocks(4, 2), POWER2, 1.5, 2.0,
                       20_000, zero_rho(), seed=12)
    return {"mid": abs(report.mid.mean - 1.3935546875) / report.mid.se,
            "rhs": abs(report.rhs.mean - 1.59765625) / report.rhs.se}


def theorem1_ma1_gaps():
    """Distances in se of theorem1's quadratic term and Hoeffding-step lhs from
    their exact MA(1) sign-panel values at b = 2 and q = 2."""
    report = run_theorem1(MA1_SIGNS_4x2, make_blocks(4, 2), 2.0, 2.0, 1.5,
                          20_000, zero_rho(), seed=12)
    hoeffding = report.margins[1]
    return {"quad": abs(report.remainders["quad_term"] - 313 / 128)
            / report.diagnostics["quad_term_se"],
            "hoeffding": abs(hoeffding.lhs - 0.69677734375) / hoeffding.lhs_se}


class TestExactEnumeration:
    def test_hand_checked_two_point_panel(self):
        # n=2, p=1 signs: |mean| is 1 on (+,+)/(-,-) and 0 otherwise, so
        # the linear-gauge expectation is 1/2; sign symmetry gives the same
        # for the multiplier side.
        chain = exact_enumeration(SIGNS_2x1, make_blocks(2, 1), RADEMACHER, POWER1)
        assert chain.lhs == pytest.approx(0.5)
        assert chain.mid == pytest.approx(0.5)
        assert chain.rhs == chain.lhs

    def test_regression_constants_4x2(self):
        # Frozen after first computation; the enumeration itself is the
        # oracle for the Monte Carlo gate below.
        sch = make_blocks(4, 2)
        q1 = exact_enumeration(SIGNS_4x2, sch, RADEMACHER, POWER1)
        q2 = exact_enumeration(SIGNS_4x2, sch, RADEMACHER, POWER2)
        assert q1.lhs == pytest.approx(0.546875)
        assert q1.mid == pytest.approx(0.546875)
        assert q2.lhs == pytest.approx(0.390625)
        assert q2.mid == pytest.approx(0.390625)

    def test_brute_force_cross_check(self):
        # Independent oracle: explicit loops over all outcomes.
        sch = make_blocks(4, 2)
        lhs_vals = []
        mid_vals = []
        for cells in itertools.product([-1.0, 1.0], repeat=8):
            panel = np.array(cells).reshape(4, 2)
            lhs_vals.append(np.abs(panel.mean(axis=0)).max())
            sums = panel.reshape(2, 2, 2).sum(axis=1)
            for eps in itertools.product([-1.0, 1.0], repeat=2):
                stat = np.abs(np.array(eps) @ sums / 4.0).max()
                mid_vals.append(stat)
        chain = exact_enumeration(SIGNS_4x2, sch, RADEMACHER, POWER2)
        assert chain.lhs == pytest.approx(np.mean(np.square(lhs_vals)))
        assert chain.mid == pytest.approx(np.mean(np.square(mid_vals)))

    @settings(max_examples=40, deadline=None)
    @given(case=small_enumerable(),
           psi=st.sampled_from([POWER1, POWER2, PsiSpec("exponential", a=1.0, b=1.0)]))
    def test_matches_brute_force(self, case, psi):
        spec, sch, scale = case
        chain = exact_enumeration(spec, sch, RADEMACHER, psi, scale)
        ref = brute_force_enumeration(spec, sch, psi, scale)
        assert chain.lhs == pytest.approx(ref.lhs, rel=1e-12)
        assert chain.mid == pytest.approx(ref.mid, rel=1e-12)
        assert chain.rhs == chain.lhs

    def test_budget_enforced(self):
        # The budget counts one column's outcomes times the multiplier
        # vectors: 2**20 * 2**5 exceeds 2**24 for any p, and the linear
        # process's lag makes 2**21 * 2**4 exceed it too.
        big = DgpSpec("bounded_rademacher", n=20, p=1)
        with pytest.raises(EnumerationBudgetError, match="p does not enter"):
            exact_enumeration(big, make_blocks(20, 4), RADEMACHER, POWER1)
        lagged = DgpSpec("linear_process", n=20, p=1, coeffs=(1.0, 0.5),
                         innovation="rademacher")
        with pytest.raises(EnumerationBudgetError, match="per-column"):
            exact_enumeration(lagged, make_blocks(20, 5), RADEMACHER, POWER1)

    @pytest.mark.parametrize("psi", [POWER2, PsiSpec("exponential", a=1.0, b=1.0)],
                             ids=["power", "exponential"])
    def test_p_much_larger_than_n_matches_binomial_closed_form(self, psi):
        # Column i has |mean| = scale |2 K_i - n| / n with K_i ~ Bin(n, 1/2)
        # iid, so P(max <= scale m / n) = C_m**p with
        # C_m = P(|2K - n| <= m); a sign panel times sign multipliers is
        # again a sign panel, so mid = lhs.
        n, p, scale = 16, 10**5, 0.75
        spec = DgpSpec("bounded_rademacher", n=n, p=p, scale=scale)
        cdf = [sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) <= m) / 2**n
               for m in range(n + 1)]
        ref = 0.0
        for m in range(n + 1):
            x = scale * m / n
            gauge = x**2 if psi.kind == "power" else math.expm1(x)
            ref += (cdf[m] ** p - (cdf[m - 1] ** p if m else 0.0)) * gauge
        chain = exact_enumeration(spec, make_blocks(n, 4), RADEMACHER, psi)
        assert chain.lhs == pytest.approx(ref, rel=1e-12)
        assert chain.mid == pytest.approx(chain.lhs, rel=1e-15)

    def test_dependent_panel_matches_brute_force(self):
        # The first exact case with mid != lhs: MA(1) columns of signs.
        sch = make_blocks(4, 2)
        chain = exact_enumeration(MA1_SIGNS_4x2, sch, RADEMACHER, POWER2)
        ref = brute_force_enumeration(MA1_SIGNS_4x2, sch, POWER2)
        assert chain.lhs == pytest.approx(ref.lhs, rel=1e-12)
        assert chain.mid == pytest.approx(ref.mid, rel=1e-12)
        assert (chain.lhs, chain.mid) == pytest.approx((0.798828125, 0.69677734375))

    @pytest.mark.parametrize("mode", ["plain", "multiplier"])
    def test_mc_matches_enumeration_on_dependent_panel(self, mode):
        assert ma1_mc_gap(mode) < 4

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="random-sign"):
            exact_enumeration(DgpSpec("iid_gaussian", n=2, p=1),
                              make_blocks(2, 1), RADEMACHER, POWER1)
        with pytest.raises(ValueError, match="rademacher innovations"):
            exact_enumeration(DgpSpec("linear_process", n=2, p=1),
                              make_blocks(2, 1), RADEMACHER, POWER1)
        with pytest.raises(ValueError, match="sign multipliers"):
            exact_enumeration(SIGNS_2x1, make_blocks(2, 1),
                              MultiplierSpec("uniform_sym"), POWER1)

    @pytest.mark.parametrize("mode", ["plain", "multiplier"])
    def test_mc_estimators_match_enumeration(self, mode):
        sch = make_blocks(4, 2)
        exact = exact_enumeration(SIGNS_4x2, sch, RADEMACHER, POWER2)
        report = run_prop1(SIGNS_4x2, sch, POWER2, 1.0, 20_000, zero_rho(),
                           seed=5)
        est, target = (report.lhs, exact.lhs) if mode == "plain" else (report.mid, exact.mid)
        assert abs(est.mean - target) < 3 * est.se

    def test_indep_copy_mode_matches_brute_force(self):
        # Oracle over (panel, copy, eps): 2^2 * 2^2 * 2^2 outcomes.
        spec = SIGNS_2x1
        sch = make_blocks(2, 1)
        vals = []
        for x in itertools.product([-1.0, 1.0], repeat=2):
            for xc in itertools.product([-1.0, 1.0], repeat=2):
                d = np.array(x) - np.array(xc)
                for eps in itertools.product([-1.0, 1.0], repeat=2):
                    vals.append(abs(np.dot(eps, d) / 2.0))
        target = np.mean(vals)
        stats = stream_statistics(spec, 20_000, 6, PURPOSE_DEFAULT, sch, RADEMACHER,
                                  copies=True).mult_max
        se = stats.std(ddof=1) / math.sqrt(len(stats))
        assert abs(stats.mean() - target) < 3 * se


class TestNegativeControls:
    """Known-wrong variants patched in; each must be caught by a named gate."""

    def test_multipliers_per_time_point(self, monkeypatch):
        # Caught by test_mc_matches_enumeration_on_dependent_panel[multiplier],
        # whose target is the pinned exact mid 0.69677734375: multipliers per
        # time point give 0.4937744140625 there, about 60 se away. The wrong
        # pass names the scheme it was asked for, as a wrong fold would.
        def per_time_point(spec, reps, seed, purpose, scheme=None, mult=None, **kw):
            if scheme is None:
                return stream_statistics(spec, reps, seed, purpose, scheme, mult, **kw)
            singletons = make_blocks(spec.n, 1)
            return stream_statistics(spec, reps, seed, purpose, singletons, mult,
                                     **kw)._replace(scheme=scheme)

        monkeypatch.setattr(blocking, "stream_statistics", per_time_point)
        assert exact_enumeration(MA1_SIGNS_4x2, make_blocks(4, 2), RADEMACHER,
                                 POWER2).mid == 0.69677734375
        assert ma1_mc_gap("multiplier") > 4

    def test_block_sums_over_wrong_length(self, monkeypatch):
        # Caught by test_mc_matches_enumeration_on_dependent_panel[multiplier]:
        # the fold gets block sums over length 1 (the first point of each
        # block) instead of b = 2, with the same block count, and the MC mid
        # lands about 325 se from the pinned exact mid 0.69677734375. Caught
        # by TestTheorem1::test_quadratic_term_matches_exact_chain too: the
        # quadratic term reads about 0.81, some 770 se from 313/128. The
        # draws sum time-major blocks, whose time axis is the first.
        block_sums = processes._block_sums
        monkeypatch.setattr(processes, "_block_sums",
                            lambda x, b, axis: block_sums(x[::b], 1, axis))
        assert exact_enumeration(MA1_SIGNS_4x2, make_blocks(4, 2), RADEMACHER,
                                 POWER2).mid == 0.69677734375
        assert ma1_mc_gap("multiplier") > 4
        assert theorem1_ma1_gaps()["quad"] > 4

    def test_prop2_without_scaling(self, monkeypatch):
        # Caught by TestProp2::test_scaling_matches_exact_chain: gain 1 gives
        # mid 0.6968 and rhs 0.7988, half the targets.
        chain = verify._chain
        monkeypatch.setattr(verify, "_chain",
                            lambda mid, psi, gain, remainder: chain(mid, psi, 1.0, remainder))
        gaps = prop2_ma1_gaps()
        assert gaps["mid"] > 4 and gaps["rhs"] > 4, gaps


class TestWrongStatistics:
    """A verifier given a pass without what it reads names what is missing,
    before numpy sees the arrays."""

    SPEC = DgpSpec("truncated_var1", n=16, p=3, phi=0.5, truncation=3.0)
    OTHER = DgpSpec("truncated_var1", n=16, p=3, phi=0.4, truncation=3.0)
    SCHEME = make_blocks(16, 4)

    def passes(self, reps=1000, *reductions):
        return {"mid": mid_pass(self.SPEC, self.SCHEME, reps, 1),
                "tail": tail_pass(self.SPEC, reps, 1, *reductions),
                "marginal": marginal_pass(self.SPEC, reps, 1)}

    def raises(self, build, match):
        with pytest.raises(ValueError, match=match) as caught:
            build()
        assert "numpy" not in str(caught.traceback[-1].path)

    def test_mid_pass_without_multipliers(self):
        streams = self.passes(1000, MaxBelow(3.0))
        plain = tail_pass(self.SPEC, 1000, 1)
        assert plain.mult_max is None
        self.raises(lambda: verify_prop1(POWER2, 3.0, zero_rho(), mid=plain),
                    r"multiplier statistic \(mult_max\)")
        self.raises(lambda: verify_prop2(POWER2, 3.0, 2.0, zero_rho(),
                                         **dict(streams, mid=plain)), "mult_max")
        self.raises(lambda: theorem1_bound(2.0, 2.0, 3.0, zero_rho(), mid=plain,
                                           marginal=streams["marginal"],
                                           tail=tail_pass(self.SPEC, 1000, 1, PowerSums(2.0))),
                    "mult_max")

    def test_tail_pass_without_its_reduction(self):
        streams = self.passes(1000, PowerSums(3.0))
        self.raises(lambda: verify_prop2(POWER2, 3.0, 2.0, zero_rho(), **streams),
                    re.escape("MaxBelow(U=3.0)"))
        theorem1 = dict(mid=streams["mid"], marginal=streams["marginal"])
        self.raises(lambda: theorem1_bound(2.0, 2.0, 3.0, zero_rho(), tail=streams["tail"],
                                           **theorem1), re.escape("PowerSums(order=2.0)"))
        self.raises(lambda: theorem1_bound(2.0, 2.0, 3.0, zero_rho(), **theorem1),
                    re.escape("PowerSums(order=2.0)"))
        self.raises(lambda: mc_per_coordinate_tails(streams["tail"], tail_levels(3.0)),
                    r"folded no Exceedances\(levels=\(0\.75")
        self.raises(lambda: mc_coordinate_mean_moment(streams["tail"], 2.0),
                    r"folded no PowerSums\(order=2\.0\); it folded \[PowerSums\(order=3\.0\)\]")

    def test_fewer_than_1000_replications(self):
        streams = self.passes(999, MaxBelow(3.0), PowerSums(2.0))
        self.raises(lambda: verify_prop1(POWER2, 3.0, zero_rho(), mid=streams["mid"]),
                    "need reps >= 1000, got 999")
        self.raises(lambda: verify_prop2(POWER2, 3.0, 2.0, zero_rho(), **streams),
                    "reps >= 1000.*got 999")
        self.raises(lambda: theorem1_bound(2.0, 2.0, 3.0, zero_rho(), **streams),
                    "reps >= 1000, got 999")
        self.raises(lambda: psi_moment_norm(POWER2, streams["marginal"], 2.0),
                    "reps >= 1000 for a stable norm estimate, got 999")

    def test_mid_pass_read_as_marginal_rows(self):
        # The mid pass (n = 16, b = 4, 2000 replications, seed 1) has what
        # the moment norm reads, and read as the marginal rows it gave 2.59
        # where the marginal rows give 13.91. Its request names it.
        mid = mid_pass(self.SPEC, self.SCHEME, 2000, 1)
        self.raises(lambda: psi_moment_norm(POWER2, mid, 2.0),
                    r"the marginal pass was drawn for purpose 2 of \{'kind': 'truncated_var1', "
                    r"'n': 16.* at seed 1, but it is read as purpose 5 of "
                    r"\{'kind': 'truncated_var1', 'n': 1,")
        norm = psi_moment_norm(POWER2, marginal_pass(self.SPEC, 2000, 1), 2.0)
        assert norm.value == pytest.approx(13.9095, abs=1e-4)
        forged = mid._replace(spec=processes.marginal_spec(self.SPEC), purpose=PURPOSE_NORM,
                              scheme=None, mult=None)
        assert psi_moment_norm(POWER2, forged, 2.0).value < 3.0

    @staticmethod
    def request(spec, purpose, seed=1, copies=False):
        """A request as the messages of ``StreamStatistics.require`` name it."""
        return (f"purpose {purpose} of {spec.to_json_dict()} at seed {seed}"
                + (", differences with the copy stream" if copies else ""))

    def test_pass_of_another_stream_or_spec(self):
        # Each mismatch names the request of the pass and the one it is read
        # as: the mid pass is read as the mid stream without copies, and the
        # tail pass and the marginal rows as streams of the mid pass's spec.
        streams = self.passes(1000, MaxBelow(3.0), PowerSums(2.0))
        marginal = processes.marginal_spec
        wrong = {
            "another stream": dict(mid=stream_statistics(self.SPEC, 1000, 1, PURPOSE_DEFAULT,
                                                         self.SCHEME, RADEMACHER)),
            "copies": dict(mid=stream_statistics(self.SPEC, 1000, 1, PURPOSE_MID, self.SCHEME,
                                                 RADEMACHER, copies=True)),
            "the tail as marginal rows": dict(marginal=streams["tail"]),
            "the marginal rows of another spec": dict(marginal=marginal_pass(self.OTHER, 1000, 1)),
            "the mid as tail": dict(tail=streams["mid"]),
            "the tail of another spec": dict(tail=tail_pass(self.OTHER, 1000, 1, MaxBelow(3.0),
                                                            PowerSums(2.0))),
        }
        want = {"mid": self.request(self.SPEC, PURPOSE_MID),
                "tail": self.request(self.SPEC, PURPOSE_TAIL),
                "marginal": self.request(marginal(self.SPEC), PURPOSE_NORM)}
        for name, swap in wrong.items():
            role, stats = next(iter(swap.items()))
            message = (f"the {role} pass was drawn for "
                       f"{self.request(stats.spec, stats.purpose, stats.seed, stats.copies)}, "
                       f"but it is read as {want[role]}")
            passes = dict(streams, **swap)
            calls = [lambda: theorem1_bound(2.0, 2.0, 3.0, zero_rho(), **passes),
                     lambda: verify_prop2(POWER2, 3.0, 2.0, zero_rho(), **passes)]
            if role == "mid":
                calls.append(lambda: verify_prop1(POWER2, 3.0, zero_rho(),
                                                  mid=passes["mid"]))
            for call in calls:
                with pytest.raises(ValueError) as caught:
                    call()
                assert str(caught.value) == message, name
        # A mid pass of another spec reads the tail pass of SPEC as a stream
        # of its own spec.
        passes = dict(streams, mid=mid_pass(self.OTHER, self.SCHEME, 1000, 1))
        message = (f"the tail pass was drawn for {want['tail']}, "
                   f"but it is read as {self.request(self.OTHER, PURPOSE_TAIL)}")
        for call in (lambda: theorem1_bound(2.0, 2.0, 3.0, zero_rho(), **passes),
                     lambda: verify_prop2(POWER2, 3.0, 2.0, zero_rho(), **passes)):
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == message

    def test_pass_of_another_seed(self):
        # A tail pass or marginal rows drawn at another seed than the mid
        # pass are rejected, each message naming both requests.
        streams = self.passes(1000, MaxBelow(3.0), PowerSums(2.0))
        wrong = {"tail": tail_pass(self.SPEC, 1000, 2, MaxBelow(3.0), PowerSums(2.0)),
                 "marginal": marginal_pass(self.SPEC, 1000, 2)}
        for role, stats in wrong.items():
            message = (f"the {role} pass was drawn for "
                       f"{self.request(stats.spec, stats.purpose, seed=2)}, "
                       f"but it is read as {self.request(stats.spec, stats.purpose, seed=1)}")
            passes = dict(streams, **{role: stats})
            for call in (lambda: theorem1_bound(2.0, 2.0, 3.0, zero_rho(), **passes),
                         lambda: verify_prop2(POWER2, 3.0, 2.0, zero_rho(), **passes)):
                with pytest.raises(ValueError) as caught:
                    call()
                assert str(caught.value) == message, role

    def test_reports_read_their_seed_from_the_mid_pass(self):
        # Each verifier writes the seed of the passes it read, and takes no
        # seed of its own: called with seed=999 on passes drawn at seed 1,
        # a report once named seed 999.
        streams = self.passes(1000, MaxBelow(3.0), PowerSums(2.0))
        reports = [verify_prop1(POWER2, 3.0, zero_rho(), mid=streams["mid"]),
                   verify_prop2(POWER2, 3.0, 2.0, zero_rho(), **streams),
                   theorem1_bound(2.0, 2.0, 3.0, zero_rho(), **streams)]
        assert [report.params["seed"] for report in reports] == [1, 1, 1]
        with pytest.raises(TypeError):
            verify_prop1(POWER2, 3.0, zero_rho(), seed=999, mid=streams["mid"])


class TestTailAndMoments:
    def test_tail_probability_upper_is_conservative(self):
        spec = DgpSpec("iid_gaussian", n=16, p=1)
        out = mc_tail_probability(tail_pass(spec, 2000, 0), U=10.0)
        assert out["hits"] == 0
        assert 0.0 < out["upper"] < 0.01
        assert out["estimate"] == 0.0

    def test_tail_probability_all_hits(self):
        out = mc_tail_probability(tail_pass(ZERO_LAW, 1000, 0), U=0.0)
        assert out["hits"] == 1000 and out["upper"] == 1.0

    def test_coordinate_moment_scalar_gaussian(self):
        spec = DgpSpec("iid_gaussian", n=16, p=1)
        out = mc_coordinate_mean_moment(tail_pass(spec, 20_000, 1, PowerSums(2.0)), 2.0)
        assert abs(out["value"] - 1.0 / 16.0) < 3 * out["se"]

    def test_split_tail_term_enumerates(self):
        # n=2, p=1 signs with level 0.4: |mean| is 1 w.p. 1/2 and 0 w.p.
        # 1/2, so E_n2 = E[(1/2) psi(2 |mean|) 1{|mean| > 0.4}] = psi(2) / 4 = 1.
        rep = run_prop2(SIGNS_2x1, make_blocks(2, 1), POWER2,
                        0.4, 2.0, 20_000, zero_rho(), seed=3)
        e2 = rep.diagnostics["E_n2"]
        assert abs(e2["mean"] - 1.0) < 3 * e2["se"]

    def test_split_tail_term_vanishes_above_support(self):
        rep = run_prop2(SIGNS_2x1, make_blocks(2, 1), POWER2,
                        1.5, 2.0, 2000, zero_rho(), seed=4)
        assert rep.diagnostics["E_n2"]["mean"] == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec("iid_gaussian", n=32, p=4),
            DgpSpec("var1", n=32, p=4, phi=0.5),
            DgpSpec("linear_process", n=32, p=4, coeffs=(1.0, 0.5)),
            DgpSpec("bounded_rademacher", n=32, p=4),
            DgpSpec("truncated_var1", n=32, p=4, phi=0.5, truncation=3.0),
        ],
        ids=lambda s: s.kind,
    )
    def test_concentration_bounds_dominate_every_kind(self, spec):
        # Invariant: each applicable bound sits above the MC exceedance
        # probability minus 3 SE on a level grid scaled to the mean's
        # dispersion.
        from blocksym.remainders import (
            concentration_general,
            concentration_lq,
            concentration_subexp,
            fit_subexp_envelope,
        )
        reps = 4000
        stats = batch_max_abs_mean(draw_panels(spec, 99, 1, 0, 0, reps))
        scale = np.quantile(stats, 0.9)
        grid = scale * np.array([1.0, 1.5, 2.5, 4.0])
        tail = tail_pass(spec, reps, 99, Exceedances(tuple(grid)), PowerSums(2.0))
        pbars = mc_per_coordinate_tails(tail, grid)
        moment = mc_coordinate_mean_moment(tail, 2.0)["value"]
        envelope = fit_subexp_envelope(grid, pbars, spec.n, gamma=1.0, amplitude=2.0,
                                       phi=0.5)
        for u, pbar in zip(grid, pbars):
            hat = float((stats >= u).mean())
            floor = hat - 3 * math.sqrt(hat * (1 - hat) / reps)
            assert concentration_general(spec.p, float(pbar)) >= floor
            assert concentration_lq(spec.p, float(u), 2.0, moment) >= floor
            assert concentration_subexp(spec.p, spec.n, float(u), envelope).value >= floor


class TestProp1:
    def test_zero_law_rejected_as_unbounded(self):
        # The zero-coefficient filter is unbounded by declaration.
        with pytest.raises(ValueError, match="bounded"):
            run_prop1(ZERO_LAW, make_blocks(8, 2), POWER2,
                      1.0, 2000, zero_rho(), seed=0)

    def test_support_must_fit_below_level(self):
        spec = DgpSpec("bounded_rademacher", n=8, p=1, scale=2.0)
        with pytest.raises(ValueError, match="exceeds"):
            run_prop1(spec, make_blocks(8, 2), POWER2,
                      1.0, 2000, zero_rho(), seed=0)

    def test_near_degenerate_scale_holds(self):
        # Vanishing panels: both sides and the remainder collapse to zero
        # and the chain holds.
        spec = DgpSpec("bounded_rademacher", n=8, p=2, scale=1e-12)
        report = run_prop1(spec, make_blocks(8, 2), POWER2,
                           1e-12, 2000, zero_rho(), seed=1)
        assert report.lhs.mean < 1e-20
        assert not report.violated

    def test_enumeration_config_holds(self):
        sch = make_blocks(4, 2)
        model = estimate_gaussian_model(SIGNS_4x2)
        rho = estimate_rhos(SIGNS_4x2, sch, RADEMACHER, model, 4000, seed=3)
        report = run_prop1(SIGNS_4x2, sch, POWER2, 1.0,
                           4000, rho, seed=4)
        assert not report.violated
        exact = exact_enumeration(SIGNS_4x2, sch, RADEMACHER, POWER2)
        assert abs(report.lhs.mean - exact.lhs) < 3 * report.lhs.se
        assert abs(report.mid.mean - exact.mid) < 3 * report.mid.se
        assert report.rhs == report.lhs

    def test_report_serialization_round_trip(self):
        sch = make_blocks(4, 2)
        report = run_prop1(SIGNS_4x2, sch, POWER2, 1.0,
                           2000, zero_rho(), seed=4)
        payload = report.to_json_dict()
        assert payload["schema_version"] == 1
        assert payload["check"] == "prop1"
        assert set(payload["remainders"]) == {"R_n", "rho_sum"}
        rows = report.csv_rows()
        assert [r["check"] for r in rows] == [
            "prop1.symmetrization", "prop1.desymmetrization",
        ]


    def test_non_finite_remainder_names_the_margin(self):
        # R_n = rho_sum * expm1(U**2) overflows at U = 30 while every side of
        # the chain stays finite: the check raises instead of giving -inf.
        rho = RhoEstimate(rho=0.05, rho_star=0.05, rho_direct=0.0, reps=1000, se=0.0)
        with pytest.raises(NonFiniteGaugeError,
                           match="remainder of the symmetrization margin is inf"):
            run_prop1(SIGNS_4x2, make_blocks(4, 2), PsiSpec("exponential", a=1.0, b=2.0),
                      30.0, 1000, rho, seed=4)


class TestProp2:
    def test_non_finite_remainder_names_the_margin(self):
        # R1 = rho_sum * expm1((2 U)**2) / 4 overflows at U = 30, so the sum
        # R1 + R2 does too, while the chain's sides and the moment norm of
        # psi(2 max|x|) stay finite on sign panels.
        rho = RhoEstimate(rho=0.05, rho_star=0.05, rho_direct=0.0, reps=1000, se=0.0)
        with pytest.raises(NonFiniteGaugeError,
                           match="remainder of the symmetrization margin is inf"):
            run_prop2(SIGNS_4x2, make_blocks(4, 2), PsiSpec("exponential", a=1.0, b=2.0),
                      30.0, 2.0, 1000, rho, seed=4)

    def test_split_and_moment_diagnostics_match_exact_chain(self):
        # MA(1) sign panel, b = 2, q = 2, U = 1.5, the support bound, so every
        # max is at most U: E_n1 = (1/2) E psi(2 max) is twice the exact lhs
        # and E_n2 is 0. One column's mean is sum_t x_t / 4 over the 2^5
        # innovation sequences e_0..e_4 with x_t = e_{t+1} + 0.5 e_t, so
        # E mean^2 = 1/2 for each column. Both diagnostics read the tail stream.
        e = 2.0 * ((np.arange(32)[:, None] >> np.arange(5)) & 1) - 1.0
        column_means = (e[:, 1:] + 0.5 * e[:, :-1]).mean(axis=1)
        exact_moment = float((column_means**2).mean())
        assert exact_moment == 0.5
        lhs = exact_enumeration(MA1_SIGNS_4x2, make_blocks(4, 2), RADEMACHER, POWER2).lhs
        assert 2 * lhs == 1.59765625
        report = run_prop2(MA1_SIGNS_4x2, make_blocks(4, 2), POWER2, 1.5,
                           2.0, 20_000, zero_rho(), seed=12)
        e1, e2 = report.diagnostics["E_n1"], report.diagnostics["E_n2"]
        assert abs(e1["mean"] - 2 * lhs) < 4 * e1["se"], e1
        assert (e2["mean"], e2["se"]) == (0.0, 0.0)
        moment = mc_coordinate_mean_moment(tail_pass(MA1_SIGNS_4x2, 20_000, 12, PowerSums(2.0)),
                                           2.0)
        assert abs(moment["value"] - exact_moment) < 4 * moment["se"], moment

    def test_scaling_matches_exact_chain(self):
        exact = exact_enumeration(MA1_SIGNS_4x2, make_blocks(4, 2), RADEMACHER, POWER2,
                                  scale=2.0)
        assert (exact.mid / 2, exact.lhs / 2) == (1.3935546875, 1.59765625)
        gaps = prop2_ma1_gaps()
        assert gaps["mid"] < 4 and gaps["rhs"] < 4, gaps

    def test_zero_law_all_zero(self):
        sch = make_blocks(8, 2)
        report = run_prop2(ZERO_LAW, sch, POWER2, 1.0, 2.0,
                           2000, zero_rho(), seed=0)
        assert report.lhs.mean == 0.0
        assert report.mid.mean == 0.0
        assert not report.violated
        assert report.remainders["R1"] == 0.0
        assert report.remainders["R2"] == 0.0

    def test_gaussian_far_tail_reduces_to_bounded_case(self):
        # U = 10 standard deviations of the mean: the exceedance never
        # fires, the truncation remainder is tiny, and the chain holds.
        spec = DgpSpec("iid_gaussian", n=64, p=1)
        sch = make_blocks(64, 8)
        model = estimate_gaussian_model(spec)
        rho = estimate_rhos(spec, sch, RADEMACHER, model, 4000, seed=1)
        report = run_prop2(spec, sch, POWER1, 10.0, 2.0,
                           4000, rho, seed=2)
        assert report.diagnostics["tail"]["hits"] == 0
        assert report.remainders["R2"] < 0.1
        assert not report.violated

    def test_split_decomposition_bounds_lhs(self):
        spec = DgpSpec("var1", n=32, p=3, phi=0.5)
        sch = make_blocks(32, 4)
        model = estimate_gaussian_model(spec)
        rho = estimate_rhos(spec, sch, RADEMACHER, model, 4000, seed=3)
        report = run_prop2(spec, sch, POWER2, 0.5, 2.0,
                           4000, rho, seed=4)
        e1 = report.diagnostics["E_n1"]["mean"]
        e2 = report.diagnostics["E_n2"]["mean"]
        se = math.hypot(report.diagnostics["E_n1"]["se"],
                        report.diagnostics["E_n2"]["se"])
        assert report.lhs.mean <= e1 + e2 + 3 * math.hypot(se, report.lhs.se)

    def test_desymmetrization_upper_chain(self):
        # The mid-based upper bound must stay below the doubled plain gauge
        # plus twice the remainder: mid + R <= 2 rhs + 2 R + noise.
        spec = DgpSpec("var1", n=32, p=3, phi=0.5)
        sch = make_blocks(32, 4)
        model = estimate_gaussian_model(spec)
        rho = estimate_rhos(spec, sch, RADEMACHER, model, 4000, seed=5)
        report = run_prop2(spec, sch, POWER2, 1.0, 2.0,
                           4000, rho, seed=6)
        total = report.remainders["total"]
        lhs_side = report.mid.mean + total
        rhs_side = 2.0 * report.rhs.mean + 2.0 * total
        assert lhs_side <= rhs_side + 3 * math.hypot(report.mid.se, 2 * report.rhs.se)


class TestIndependenceReduction:
    def test_iid_gaussian_two_sided(self):
        spec = DgpSpec("iid_gaussian", n=16, p=3)
        report = verify_independence_reduction(spec, POWER2, 20_000, seed=7)
        margin = report.margins[0]
        assert margin.two_sided
        assert abs(margin.margin) <= 3 * margin.se

    def test_zero_law_not_iid_kind(self):
        with pytest.raises(ValueError, match="iid"):
            verify_independence_reduction(
                DgpSpec("var1", n=8, p=1, phi=0.5), POWER2, 2000, seed=0
            )

    def test_sign_panel_enumeration_agreement(self):
        # Exact enumeration of both sides for the 2x1 sign panel: the laws
        # coincide, so both expectations equal the same constant.
        vals_eps, vals_plain = [], []
        for x in itertools.product([-1.0, 1.0], repeat=2):
            for xc in itertools.product([-1.0, 1.0], repeat=2):
                d = np.array(x) - np.array(xc)
                vals_plain.append(abs(d.sum() / 2.0))
                for eps in itertools.product([-1.0, 1.0], repeat=2):
                    vals_eps.append(abs(np.dot(eps, d) / 2.0))
        assert np.mean(vals_eps) == pytest.approx(np.mean(vals_plain))
        report = verify_independence_reduction(SIGNS_2x1, POWER1, 20_000, seed=8)
        assert abs(report.lhs.mean - np.mean(vals_eps)) < 3 * report.lhs.se
        assert abs(report.margins[0].margin) <= 3 * report.margins[0].se


class TestTheorem1:
    def test_zero_law_trivial(self):
        sch = make_blocks(8, 2)
        report = run_theorem1(ZERO_LAW, sch, 2.0, 2.0, 1.0,
                              2000, zero_rho(), seed=0)
        assert report.lhs.mean == 0.0
        assert not report.violated

    def test_hoeffding_factor_printed_value(self):
        # p=1, q=2, sign multipliers: the factor is 2 ln(2) / n.
        assert hoeffding_factor(2.0, 1.0, 1, 32) == pytest.approx(
            2.0 * math.log(2.0) / 32.0
        )
        spec = DgpSpec("iid_gaussian", n=32, p=2)
        sch = make_blocks(32, 4)
        report = run_theorem1(spec, sch, 2.0, 2.0, 1.0,
                              2000, zero_rho(), seed=1)
        assert report.remainders["hoeffding_factor"] == pytest.approx(
            hoeffding_factor(2.0, 1.0, 2, 32)
        )

    def test_conservative_r1_is_max_of_variants(self):
        spec = DgpSpec("var1", n=64, p=4, phi=0.5)
        sch = make_blocks(64, 8)
        model = estimate_gaussian_model(spec)
        rho = estimate_rhos(spec, sch, RADEMACHER, model, 2000, seed=2)
        report = run_theorem1(spec, sch, 2.0, 2.0, 1.5,
                              2000, rho, seed=3)
        rem = report.remainders
        assert rem["R1_used"] == max(rem["R1_quadrature"], rem["R1_nscaled"])

    def test_lq_mode_wiring(self):
        spec = DgpSpec("iid_gaussian", n=16, p=4)
        sch = make_blocks(16, 4)
        report = run_theorem1(spec, sch, 1.0, 2.0, 2.0,
                              2000, zero_rho(), seed=6)
        tail = report.diagnostics["tail"]
        rem = report.remainders
        assert tail["mode"] == "lq"
        moment = mc_coordinate_mean_moment(tail_pass(spec, 2000, 6, PowerSums(1.0)), 1.0)
        assert tail["max_mean_moment"] == moment["value"]
        assert rem["tail_bound"] == concentration_lq(4, 2.0, 1.0, tail["max_mean_moment"])
        assert rem["R2"] == remainder_R2(2.0, rem["tail_bound"], 2.0 * rem["M_hat_q"])
        assert report.rhs.mean == pytest.approx(rem["hoeffding_factor"] * rem["quad_term"])
        assert report.margins[0].remainder == 0.5 * (rem["R1_used"] + rem["R2"])

    def test_tail_pass_or_tail_params(self):
        # The tail bound reads a tail pass (lq) or tail_params (subexp), so
        # given both or neither, theorem1 raises before it reads either.
        passes = dict(mid=mid_pass(ZERO_LAW, make_blocks(8, 2), 2000, 0),
                      marginal=marginal_pass(ZERO_LAW, 2000, 0))
        both = dict(tail=tail_pass(ZERO_LAW, 2000, 0, PowerSums(2.0)),
                    tail_params=TailParams(a=2.0, b=0.1, gamma=1.0, phi=0.5))
        for given, word in (({}, "neither"), (both, "both")):
            with pytest.raises(ValueError, match=re.escape(
                    "the tail bound reads a tail pass that folded PowerSums(order=2.0) (lq) "
                    f"or tail_params (subexp); got {word}")):
                theorem1_bound(2.0, 2.0, 1.0, zero_rho(), **passes, **given)

    def test_hoeffding_factor_reads_the_mid_pass_law(self):
        # Uniform multipliers on [-sqrt(3), sqrt(3)] are bounded by sqrt(3),
        # and the factor takes that bound from the mid pass.
        spec, sch = DgpSpec("iid_gaussian", n=16, p=3), make_blocks(16, 4)
        uniform = mid_pass(spec, sch, 1000, 1, MultiplierSpec("uniform_sym"))
        report = theorem1_bound(2.0, 2.0, 1.0, zero_rho(), mid=uniform,
                                marginal=marginal_pass(spec, 1000, 1),
                                tail=tail_pass(spec, 1000, 1, PowerSums(2.0)))
        assert report.remainders["hoeffding_factor"] == hoeffding_factor(2.0, math.sqrt(3.0),
                                                                         3, 16)
        assert report.params["b"] == 4

    @settings(max_examples=80, deadline=None)
    @given(c=st.integers(1, 40), count=st.integers(1, 16), p=st.integers(1, 5),
           seed=st.integers(0, 2**32))
    def test_squared_block_sums_are_bit_identical(self, c, count, p, seed):
        # The stream fold squares each block's sums where the block is drawn
        # (np.einsum("klp,klp->kp")), so a replication's sum of squares must
        # not depend on how many replications share its block. Values of
        # mixed magnitude, so that a different summation order changes the
        # last bits.
        rng = np.random.default_rng(seed)
        sums = rng.standard_normal((c, count, p)) * 10.0 ** rng.uniform(-3, 3, (c, count, p))
        whole = np.einsum("klp,klp->kp", sums, sums)
        step = 1 + seed % c
        for lo in range(0, c, step):
            part = sums[lo : lo + step]
            assert np.array_equal(np.einsum("klp,klp->kp", part, part), whole[lo : lo + step])

    def test_quadratic_term_matches_exact_chain(self):
        # MA(1) sign panel, b = 2, q = 2. One column reads 2^5 equiprobable
        # innovation sequences e_0..e_4, with x_t = e_{t+1} + 0.5 e_t,
        # S = (x_0 + x_1, x_2 + x_3) and quad = (S_0^2 + S_1^2) / 4; the
        # max over p = 2 iid columns takes the F^p weights (p = 2) of
        # exact_enumeration. That gives E[quad] = 313/128 = 2.4453125. The
        # Hoeffding-step lhs is E max_i |(1/n) sum_l eps_l S[l, i]|^2, the
        # exact mid 0.69677734375.
        e = 2.0 * ((np.arange(32)[:, None] >> np.arange(5)) & 1) - 1.0
        x = e[:, 1:] + 0.5 * e[:, :-1]
        column = np.sort(((x[:, 0] + x[:, 1]) ** 2 + (x[:, 2] + x[:, 3]) ** 2) / 4)
        j = np.arange(1, 33)
        assert column @ ((j / 32) ** 2 - ((j - 1) / 32) ** 2) == 313 / 128
        gaps = theorem1_ma1_gaps()
        assert gaps["quad"] < 4 and gaps["hoeffding"] < 4, gaps

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpu"])
    def test_quadratic_term_matches_serial_panels(self, cpus, monkeypatch):
        # The quadratic term and the Hoeffding difference, read from the mid
        # stream that is folded block by block where the panels are drawn,
        # equal the same statistics of the serial panels of
        # tests/conftest.py, bit for bit.
        spec, sch, q, reps, seed = DgpSpec("var1", n=8, p=3, phi=0.4), make_blocks(8, 2), 3.0, \
            MAX_BLOCK_REPS + 30, 7
        monkeypatch.setattr(processes, "_BLOCK_BYTES", 7 * spec.n * spec.p * 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        report = run_theorem1(spec, sch, q, 2.0, 1.0, reps, zero_rho(), seed=seed)
        sums = batch_block_sums(draw_panels(spec, seed, STREAM_PANEL, PURPOSE_MID, 0, reps), sch)
        eps = pass_multipliers(spec, RADEMACHER, sch.count, seed, PURPOSE_MID, 0, reps)
        quad = (np.einsum("klp,klp->kp", sums, sums).max(axis=1) / spec.n) ** (q / 2.0)
        factor = hoeffding_factor(q, 1.0, spec.p, spec.n)
        diff = batch_multiplier_max(sums, eps, spec.n) ** q - factor * quad
        want_quad, want_diff = verify._estimate_from_values(quad), \
            verify._estimate_from_values(diff)
        hoeff = report.margins[1]
        assert report.remainders["quad_term"] == want_quad.mean
        assert report.diagnostics["quad_term_se"] == want_quad.se
        assert (hoeff.margin, hoeff.se) == (want_diff.mean, want_diff.se)

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpu"])
    def test_quadratic_term_holds_one_copy_of_the_sums(self, cpus, monkeypatch):
        # The sums are squared block by block where they are drawn, so the
        # peak stays below the block sums of 2048 replications (squaring that
        # many at once peaked above twice their bytes).
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        spec = DgpSpec("iid_gaussian", n=32, p=100)
        tracemalloc.start()
        try:
            run_theorem1(spec, make_blocks(32, 2), 2.0, 2.0, 3.0,
                         MAX_BLOCK_REPS, zero_rho(), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < MAX_BLOCK_REPS * 16 * spec.p * 8

    def test_subexp_mode_and_verdicts(self):
        spec = DgpSpec("var1", n=64, p=4, phi=0.5)
        sch = make_blocks(64, 8)
        model = estimate_gaussian_model(spec)
        rho = estimate_rhos(spec, sch, RADEMACHER, model, 2000, seed=4)
        params = TailParams(a=2.0, b=0.1, gamma=1.0, phi=0.5)
        report = run_theorem1(spec, sch, 1.0, 2.0, 1.0,
                              4000, rho, seed=5, tail_params=params)
        names = {m.name: m.verdict for m in report.margins}
        assert names["moment-bound"] != "violated"
        assert names["hoeffding-step"] != "violated"


class TestOnePassChain:
    """Every side of every check reads the one pass of the mid stream, and
    each margin's se is the se of the per-replication differences of its
    two sides."""

    SPEC = DgpSpec("truncated_var1", n=16, p=3, phi=0.5, truncation=3.0)
    SCHEME = make_blocks(16, 4)
    REPS, SEED = 2000, 3

    def mid_stream(self):
        return mid_pass(self.SPEC, self.SCHEME, self.REPS, self.SEED)

    @pytest.mark.parametrize("gain", [1.0, 2.0], ids=["prop1", "prop2"])
    def test_chain_sides_and_paired_se(self, gain):
        args = (self.SPEC, self.SCHEME, POWER2, 3.0)
        report = (run_prop1(*args, self.REPS, zero_rho(), self.SEED) if gain == 1.0
                  else run_prop2(*args, 2.0, self.REPS, zero_rho(), self.SEED))
        stats = self.mid_stream()
        lhs = psi_eval(POWER2, stats.max_abs_mean)
        mid = psi_eval(POWER2, gain * stats.mult_max) / gain
        rhs = psi_eval(POWER2, gain * stats.max_abs_mean) / gain
        estimate = verify._estimate_from_values
        assert (report.lhs, report.mid, report.rhs) == tuple(map(estimate, (lhs, mid, rhs)))
        if gain == 1.0:
            assert report.rhs == report.lhs
        symmetrization, desymmetrization = report.margins
        assert symmetrization.se == estimate(lhs - mid).se
        assert desymmetrization.se == estimate(mid - rhs).se
        assert symmetrization.margin == estimate(lhs - mid).mean - symmetrization.remainder

    def test_moment_bound_paired_se(self):
        q = 2.0
        report = run_theorem1(self.SPEC, self.SCHEME, q, 2.0, 3.0, self.REPS,
                              zero_rho(), seed=self.SEED)
        stats = self.mid_stream()
        rem = report.remainders
        lhs = stats.max_abs_mean**q
        rhs = rem["hoeffding_factor"] * stats.quad ** (q / 2.0)
        remainder = 0.5 * (rem["R1_used"] + rem["R2"])
        estimate = verify._estimate_from_values
        assert (report.lhs, report.rhs) == (estimate(lhs), estimate(rhs))
        main, hoeffding = report.margins
        assert (main.remainder, main.se) == (remainder, estimate(lhs - rhs).se)
        assert main.margin == estimate(lhs - rhs).mean - remainder
        assert main.slack == (main.lhs - main.rhs) / remainder
        # The remainder once sat inside the rhs; the margin and its se move
        # only in the last bits.
        inside = estimate(lhs - (rhs + remainder))
        assert main.margin == pytest.approx(inside.mean, rel=1e-12)
        assert main.se == pytest.approx(inside.se, rel=1e-9)
        assert hoeffding.se == estimate(stats.mult_max**q - rhs).se

    def test_independence_paired_se(self):
        spec = DgpSpec("iid_gaussian", n=16, p=3)
        report = verify_independence_reduction(spec, POWER2, self.REPS, seed=self.SEED)
        stats = stream_statistics(spec, self.REPS, self.SEED, PURPOSE_LHS, make_blocks(16, 1),
                                  RADEMACHER, copies=True)
        diff = psi_eval(POWER2, stats.mult_max) - psi_eval(POWER2, stats.max_abs_mean)
        assert report.margins[0].se == verify._estimate_from_values(diff).se


def cdf_integral_check(spec, psi, U, reps, seed, grid_points=401):
    """Direct expectation versus the tail-integral route, shared sample.

    For panels supported inside [-U, U]^p the gauge expectation equals the
    integral of psi' times the exceedance probability of the max statistic
    over [0, U]; both sides are computed from the same replications so the
    residual is pure grid discretization.
    """
    bound = spec.support_bound
    if bound is None or bound > U + 1e-12:
        raise ValueError("the identity requires panel support inside [-U, U]^p")
    stats = stream_statistics(spec, reps, seed, PURPOSE_LHS).max_abs_mean
    direct = float(np.mean(np.asarray(psi_eval(psi, stats))))
    grid = np.linspace(0.0, U, grid_points)
    stats_sorted = np.sort(stats)
    exceed = 1.0 - np.searchsorted(stats_sorted, grid, side="right") / reps
    integrand = 2.0 * grid * exceed  # POWER2's derivative, 2u
    integral = float(np.trapezoid(integrand, grid))
    return {"direct": direct, "integral": integral,
            "relative_gap": abs(direct - integral) / max(abs(direct), 1e-300)}


class TestCdfIntegralIdentity:
    def test_two_routes_agree(self):
        spec = DgpSpec("bounded_rademacher", n=16, p=2)
        out = cdf_integral_check(spec, POWER2, 1.0, 20_000, seed=9)
        assert out["relative_gap"] < 0.02

    def test_requires_bounded_support(self):
        with pytest.raises(ValueError, match="support"):
            cdf_integral_check(DgpSpec("iid_gaussian", n=8, p=1), POWER2,
                               1.0, 2000, seed=0)
