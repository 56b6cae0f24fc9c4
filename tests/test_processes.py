import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksym.processes import (
    DgpSpec,
    DgpValidationError,
    LongRunCovError,
    PanelSample,
    generate,
    generate_panels,
    independent_copy,
    theoretical_longrun_cov,
    write_panel_csv,
)

VAR1 = DgpSpec("var1", n=64, p=4, phi=0.5)


def stack_panels(spec, reps, seed, **kw):
    out = np.empty((reps, spec.n, spec.p))
    for start, chunk in generate_panels(spec, reps, seed, **kw):
        out[start : start + len(chunk)] = chunk
    return out


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(DgpValidationError, match="kind"):
            DgpSpec("brownian", n=4, p=1)

    def test_nonstationary_phi(self):
        with pytest.raises(DgpValidationError, match="phi"):
            DgpSpec("var1", n=4, p=1, phi=1.0)

    def test_bad_dims(self):
        with pytest.raises(DgpValidationError, match="n"):
            DgpSpec("iid_gaussian", n=0, p=1)
        with pytest.raises(DgpValidationError, match="p"):
            DgpSpec("iid_gaussian", n=1, p=0)

    def test_empty_coeffs(self):
        with pytest.raises(DgpValidationError, match="coeffs"):
            DgpSpec("linear_process", n=4, p=1, coeffs=())

    def test_cross_corr_range(self):
        with pytest.raises(DgpValidationError, match="cross_corr"):
            DgpSpec("iid_gaussian", n=4, p=3, cross_corr=-0.9)

    def test_panel_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            PanelSample(data=np.zeros((3, 2)), n=2, p=2)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec("iid_gaussian", n=2, p=2),
            VAR1,
            DgpSpec("linear_process", n=8, p=2, coeffs=(1.0, 0.5, 0.25)),
            DgpSpec("bounded_rademacher", n=8, p=2),
            DgpSpec("truncated_var1", n=8, p=2, phi=0.5, truncation=3.0),
        ],
    )
    def test_bit_identical(self, spec):
        a = generate(spec, seed=11)
        b = generate(spec, seed=11)
        assert np.array_equal(a.data, b.data)

    def test_seeds_differ(self):
        a = generate(VAR1, seed=1)
        b = generate(VAR1, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_copy_stream_disjoint(self):
        a = generate(VAR1, seed=1)
        b = independent_copy(VAR1, seed=1)
        assert not np.array_equal(a.data, b.data)

    def test_single_scalar_copy(self):
        pan = independent_copy(DgpSpec("iid_gaussian", n=1, p=1), seed=2)
        assert pan.data.shape == (1, 1)

    def test_batch_matches_per_rep_streams(self):
        # Chunking must not change which substream feeds which replication.
        big = stack_panels(VAR1, 10, 3, chunk=10)
        small = stack_panels(VAR1, 10, 3, chunk=3)
        assert np.array_equal(big, small)


class TestSupport:
    def test_rademacher_support(self):
        spec = DgpSpec("bounded_rademacher", n=4, p=1)
        pan = generate(spec, seed=5)
        assert set(np.unique(pan.data)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("seed", range(5))
    def test_truncated_support_exhaustive(self, seed):
        spec = DgpSpec("truncated_var1", n=64, p=4, phi=0.5, truncation=2.0)
        pan = generate(spec, seed=seed)
        assert np.abs(pan.data).max() <= 2.0

    def test_scaled_rademacher(self):
        spec = DgpSpec("bounded_rademacher", n=16, p=2, scale=0.5)
        pan = generate(spec, seed=0)
        assert set(np.unique(np.abs(pan.data))) == {0.5}


class TestMoments:
    def test_mean_zero_over_replications(self):
        reps = 10_000
        for spec in [
            DgpSpec("iid_gaussian", n=4, p=2),
            DgpSpec("var1", n=4, p=2, phi=0.5),
            DgpSpec("truncated_var1", n=4, p=2, phi=0.5, truncation=3.0),
        ]:
            panels = stack_panels(spec, reps, 9)
            sd = panels.std(axis=0)
            assert np.all(np.abs(panels.mean(axis=0)) < 4.0 / math.sqrt(reps) * sd)

    def test_var1_phi_zero_matches_iid_lag1(self):
        # phi = 0 degenerates to iid; lag-1 autocovariance must sit at zero.
        spec = DgpSpec("var1", n=64, p=1, phi=0.0)
        panels = stack_panels(spec, 4000, 13)[:, :, 0]
        lag1 = (panels[:, 1:] * panels[:, :-1]).mean(axis=1)
        se = lag1.std(ddof=1) / math.sqrt(len(lag1))
        assert abs(lag1.mean()) < 3 * se

    def test_independent_copy_uncorrelated(self):
        # Products of aligned standard normal entries have unit variance,
        # so the empirical correlation sits within 4 SE of zero.
        reps = 4000
        spec = DgpSpec("iid_gaussian", n=2, p=2)
        orig = stack_panels(spec, reps, 21).reshape(reps, -1)
        copies = stack_panels(spec, reps, 21, stream=2).reshape(reps, -1)
        corr = (orig * copies).mean(axis=0)
        assert np.abs(corr).max() < 4.0 / math.sqrt(reps)

    def test_copy_matches_original_law_lag1(self):
        # Lag-1 autocovariance of the copy agrees with the original within
        # Monte Carlo error at phi = 0.5.
        spec = DgpSpec("var1", n=32, p=1, phi=0.5)
        reps = 10_000
        orig = stack_panels(spec, reps, 4)[:, :, 0]
        cop = stack_panels(spec, reps, 4, stream=2)[:, :, 0]

        def lag1(mat):
            vals = (mat[:, 1:] * mat[:, :-1]).mean(axis=1)
            return vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))

        m1, s1 = lag1(orig)
        m2, s2 = lag1(cop)
        assert abs(m1 - m2) < 3 * math.hypot(s1, s2)


class TestLongRunCov:
    def test_iid_identity(self):
        spec = DgpSpec("iid_gaussian", n=16, p=3)
        assert np.allclose(theoretical_longrun_cov(spec), np.eye(3))

    def test_iid_equicorrelated(self):
        spec = DgpSpec("iid_gaussian", n=16, p=3, cross_corr=0.4)
        cov = theoretical_longrun_cov(spec)
        assert cov[0, 1] == pytest.approx(0.4)
        assert cov[0, 0] == pytest.approx(1.0)

    def test_var1_against_double_sum(self):
        # Brute-force O(n^2) double summation of autocovariances.
        spec = DgpSpec("var1", n=64, p=1, phi=0.5)
        gamma0 = 1.0 / (1.0 - 0.25)
        brute = sum(
            0.5 ** abs(s - t) * gamma0 for s in range(64) for t in range(64)
        ) / 64.0
        assert theoretical_longrun_cov(spec)[0, 0] == pytest.approx(brute, rel=1e-12)

    def test_linear_trivial_filter_reduces_to_iid(self):
        spec = DgpSpec("linear_process", n=16, p=2, coeffs=(1.0,))
        assert np.allclose(theoretical_longrun_cov(spec), np.eye(2))

    def test_linear_against_double_sum(self):
        coeffs = (1.0, 0.7, -0.3)
        n = 32
        spec = DgpSpec("linear_process", n=n, p=1, coeffs=coeffs)
        a = np.array(coeffs)

        def gamma(h):
            h = abs(h)
            return float(np.dot(a[: len(a) - h], a[h:])) if h < len(a) else 0.0

        brute = sum(gamma(s - t) for s in range(n) for t in range(n)) / n
        assert theoretical_longrun_cov(spec)[0, 0] == pytest.approx(brute, rel=1e-12)

    def test_truncated_has_no_closed_form(self):
        spec = DgpSpec("truncated_var1", n=16, p=1, phi=0.5)
        with pytest.raises(LongRunCovError, match="MC covariance"):
            theoretical_longrun_cov(spec)

    def test_matches_mc_covariance(self):
        # Covariance of sqrt(n) * column means over replications; for the
        # near-Gaussian statistic Var(s_i s_j) = c_ii c_jj + c_ij^2.
        spec = DgpSpec("var1", n=64, p=4, phi=0.5, cross_corr=0.3)
        reps = 10_000
        panels = stack_panels(spec, reps, 17)
        stats = panels.mean(axis=1) * math.sqrt(spec.n)
        mc = stats.T @ stats / reps
        cov = theoretical_longrun_cov(spec)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / reps)
        assert np.all(np.abs(mc - cov) < 4 * se)


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        pan = generate(DgpSpec("iid_gaussian", n=3, p=2), seed=1)
        path = tmp_path / "panel.csv"
        write_panel_csv(pan, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,i,value"
        assert len(lines) == 1 + 3 * 2
        t, i, value = lines[1].split(",")
        assert (t, i) == ("1", "1")
        assert float(value) == pan.data[0, 0]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    p=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
def test_generate_is_pure(n, p, seed):
    spec = DgpSpec("var1", n=n, p=p, phi=0.25)
    assert np.array_equal(generate(spec, seed).data, generate(spec, seed).data)
