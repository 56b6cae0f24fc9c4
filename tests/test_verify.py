import itertools
import math

import numpy as np
import pytest

from blocksym.blocking import (
    MultiplierSpec,
    batch_block_sums,
    batch_max_abs_mean,
    batch_multiplier_max,
    make_blocks,
)
from blocksym.gaussian import RhoEstimate, estimate_gaussian_model, estimate_rhos
from blocksym.processes import DgpSpec
from blocksym.psi import PsiSpec
from blocksym.remainders import TailParams
from blocksym.verify import (
    hoeffding_factor,
    EnumerationBudgetError,
    NonFiniteGaugeError,
    cdf_integral_check,
    exact_enumeration,
    mc_coordinate_mean_moment,
    mc_expect_psi_max,
    mc_tail_probability,
    theorem1_bound,
    verdict_for,
    verify_independence_reduction,
    verify_prop1,
    verify_prop2,
)

RADEMACHER = MultiplierSpec("rademacher")
POWER1 = PsiSpec("power", q=1.0)
POWER2 = PsiSpec("power", q=2.0)
ZERO_LAW = DgpSpec("linear_process", n=8, p=2, coeffs=(0.0,))
SIGNS_2x1 = DgpSpec("bounded_rademacher", n=2, p=1)
SIGNS_4x2 = DgpSpec("bounded_rademacher", n=4, p=2)


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
        est = mc_expect_psi_max("plain", ZERO_LAW, scheme, RADEMACHER, POWER2,
                                1.0, 2000, seed=0)
        assert est.mean == 0.0 and est.se == 0.0

    def test_gaussian_mean_square(self):
        # Scalar iid Gaussian: E (column mean)^2 = 1/n.
        spec = DgpSpec("iid_gaussian", n=64, p=1)
        scheme = make_blocks(64, 8)
        est = mc_expect_psi_max("plain", spec, scheme, RADEMACHER, POWER2,
                                1.0, 20_000, seed=1)
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
        heavy = PsiSpec("exponential", a=200.0, b=3.0)
        spec = DgpSpec("iid_gaussian", n=4, p=1)
        scheme = make_blocks(4, 2)
        with pytest.raises(NonFiniteGaugeError, match="replication"):
            mc_expect_psi_max("plain", spec, scheme, RADEMACHER, heavy,
                              8.0, 2000, seed=2)

    def test_mode_validation(self):
        scheme = make_blocks(8, 2)
        with pytest.raises(ValueError, match="mode"):
            mc_expect_psi_max("median", ZERO_LAW, scheme, RADEMACHER, POWER1,
                              1.0, 2000, seed=0)
        with pytest.raises(ValueError, match="trunc_level"):
            mc_expect_psi_max("truncated-indicator", ZERO_LAW, scheme,
                              RADEMACHER, POWER1, 1.0, 2000, seed=0)


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

    def test_budget_enforced(self):
        big = DgpSpec("bounded_rademacher", n=8, p=4)
        with pytest.raises(EnumerationBudgetError):
            exact_enumeration(big, make_blocks(8, 2), RADEMACHER, POWER1)

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="random-sign"):
            exact_enumeration(DgpSpec("iid_gaussian", n=2, p=1),
                              make_blocks(2, 1), RADEMACHER, POWER1)
        with pytest.raises(ValueError, match="sign multipliers"):
            exact_enumeration(SIGNS_2x1, make_blocks(2, 1),
                              MultiplierSpec("uniform_sym"), POWER1)

    @pytest.mark.parametrize("mode", ["plain", "multiplier"])
    def test_mc_estimators_match_enumeration(self, mode):
        sch = make_blocks(4, 2)
        exact = exact_enumeration(SIGNS_4x2, sch, RADEMACHER, POWER2)
        target = exact.lhs if mode == "plain" else exact.mid
        est = mc_expect_psi_max(mode, SIGNS_4x2, sch, RADEMACHER, POWER2,
                                1.0, 20_000, seed=5)
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
        est = mc_expect_psi_max("multiplier-indep-copy", spec, sch, RADEMACHER,
                                POWER1, 1.0, 20_000, seed=6)
        assert abs(est.mean - target) < 3 * est.se


class TestTailAndMoments:
    def test_tail_probability_upper_is_conservative(self):
        spec = DgpSpec("iid_gaussian", n=16, p=1)
        out = mc_tail_probability(spec, U=10.0, reps=2000, seed=0)
        assert out["hits"] == 0
        assert 0.0 < out["upper"] < 0.01
        assert out["estimate"] == 0.0

    def test_tail_probability_all_hits(self):
        out = mc_tail_probability(ZERO_LAW, U=0.0, reps=1000, seed=0)
        assert out["hits"] == 1000 and out["upper"] == 1.0

    def test_coordinate_moment_scalar_gaussian(self):
        spec = DgpSpec("iid_gaussian", n=16, p=1)
        out = mc_coordinate_mean_moment(spec, 2.0, 20_000, seed=1)
        assert abs(out["value"] - 1.0 / 16.0) < 3 * out["se"]

    def test_truncated_indicator_mode_enumerates(self):
        # n=2, p=1 signs with level 0.4: |mean| is 1 w.p. 1/2 and 0 w.p.
        # 1/2, so E[psi(2 |mean|) 1{|mean| > 0.4}] = psi(2) / 2 = 2.
        sch = make_blocks(2, 1)
        est = mc_expect_psi_max("truncated-indicator", SIGNS_2x1, sch,
                                RADEMACHER, POWER2, 1.0, 20_000, seed=3,
                                trunc_level=0.4)
        assert abs(est.mean - 2.0) < 3 * est.se

    def test_truncated_indicator_vanishes_above_support(self):
        sch = make_blocks(2, 1)
        est = mc_expect_psi_max("truncated-indicator", SIGNS_2x1, sch,
                                RADEMACHER, POWER2, 1.0, 2000, seed=4,
                                trunc_level=1.5)
        assert est.mean == 0.0

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
        from blocksym.processes import generate_panels
        from blocksym.remainders import (
            concentration_general,
            concentration_lq,
            concentration_subexp,
            fit_subexp_envelope,
        )
        from blocksym.verify import mc_per_coordinate_tails

        reps = 4000
        stats = np.empty(reps)
        for start, panels in generate_panels(spec, reps, 99, 1, 0):
            stats[start : start + len(panels)] = batch_max_abs_mean(panels)
        scale = np.quantile(stats, 0.9)
        grid = scale * np.array([1.0, 1.5, 2.5, 4.0])
        pbars = mc_per_coordinate_tails(spec, grid, reps, seed=99)
        moment = mc_coordinate_mean_moment(spec, 2.0, reps, seed=99)["value"]
        envelope = fit_subexp_envelope(grid, pbars, spec.n, gamma=1.0, phi=0.5)
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
            verify_prop1(ZERO_LAW, make_blocks(8, 2), RADEMACHER, POWER2,
                         1.0, 2000, zero_rho(), seed=0)

    def test_support_must_fit_below_level(self):
        spec = DgpSpec("bounded_rademacher", n=8, p=1, scale=2.0)
        with pytest.raises(ValueError, match="exceeds"):
            verify_prop1(spec, make_blocks(8, 2), RADEMACHER, POWER2,
                         1.0, 2000, zero_rho(), seed=0)

    def test_near_degenerate_scale_holds(self):
        # Vanishing panels: both sides and the remainder collapse to zero
        # and the chain holds.
        spec = DgpSpec("bounded_rademacher", n=8, p=2, scale=1e-12)
        report = verify_prop1(spec, make_blocks(8, 2), RADEMACHER, POWER2,
                              1e-12, 2000, zero_rho(), seed=1)
        assert report.lhs.mean < 1e-20
        assert not report.violated

    def test_enumeration_config_holds(self):
        sch = make_blocks(4, 2)
        model = estimate_gaussian_model(SIGNS_4x2)
        rho = estimate_rhos(SIGNS_4x2, sch, RADEMACHER, model, 4000, seed=3)
        report = verify_prop1(SIGNS_4x2, sch, RADEMACHER, POWER2, 1.0,
                              4000, rho, seed=4)
        assert not report.violated
        exact = exact_enumeration(SIGNS_4x2, sch, RADEMACHER, POWER2)
        assert abs(report.lhs.mean - exact.lhs) < 3 * report.lhs.se
        assert abs(report.mid.mean - exact.mid) < 3 * report.mid.se
        assert abs(report.rhs.mean - exact.rhs) < 3 * report.rhs.se

    def test_report_serialization_round_trip(self):
        sch = make_blocks(4, 2)
        report = verify_prop1(SIGNS_4x2, sch, RADEMACHER, POWER2, 1.0,
                              2000, zero_rho(), seed=4)
        payload = report.to_json_dict()
        assert payload["schema_version"] == 1
        assert payload["check"] == "prop1"
        assert set(payload["remainders"]) == {"R_n", "rho_sum"}
        rows = report.csv_rows()
        assert [r["check"] for r in rows] == [
            "prop1.symmetrization", "prop1.desymmetrization",
        ]


class TestProp2:
    def test_zero_law_all_zero(self):
        sch = make_blocks(8, 2)
        report = verify_prop2(ZERO_LAW, sch, RADEMACHER, POWER2, 1.0, 2.0,
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
        report = verify_prop2(spec, sch, RADEMACHER, POWER1, 10.0, 2.0,
                              4000, rho, seed=2)
        assert report.diagnostics["tail"]["hits"] == 0
        assert report.remainders["R2"] < 0.1
        assert not report.violated

    def test_split_decomposition_bounds_lhs(self):
        spec = DgpSpec("var1", n=32, p=3, phi=0.5)
        sch = make_blocks(32, 4)
        model = estimate_gaussian_model(spec)
        rho = estimate_rhos(spec, sch, RADEMACHER, model, 4000, seed=3)
        report = verify_prop2(spec, sch, RADEMACHER, POWER2, 0.5, 2.0,
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
        report = verify_prop2(spec, sch, RADEMACHER, POWER2, 1.0, 2.0,
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
        report = theorem1_bound(ZERO_LAW, sch, RADEMACHER, 2.0, 2.0, 1.0,
                                2000, zero_rho(), "lq", seed=0)
        assert report.lhs.mean == 0.0
        assert not report.violated

    def test_hoeffding_factor_printed_value(self):
        # p=1, q=2, sign multipliers: the factor is 2 ln(2) / n.
        assert hoeffding_factor(2.0, 1.0, 1, 32) == pytest.approx(
            2.0 * math.log(2.0) / 32.0
        )
        spec = DgpSpec("iid_gaussian", n=32, p=2)
        sch = make_blocks(32, 4)
        report = theorem1_bound(spec, sch, RADEMACHER, 2.0, 2.0, 1.0,
                                2000, zero_rho(), "lq", seed=1)
        assert report.remainders["hoeffding_factor"] == pytest.approx(
            hoeffding_factor(2.0, 1.0, 2, 32)
        )

    def test_conservative_r1_is_max_of_variants(self):
        spec = DgpSpec("var1", n=64, p=4, phi=0.5)
        sch = make_blocks(64, 8)
        model = estimate_gaussian_model(spec)
        rho = estimate_rhos(spec, sch, RADEMACHER, model, 2000, seed=2)
        report = theorem1_bound(spec, sch, RADEMACHER, 2.0, 2.0, 1.5,
                                2000, rho, "lq", seed=3)
        rem = report.remainders
        assert rem["R1_used"] == max(rem["R1_quadrature"], rem["R1_nscaled"])

    def test_subexp_mode_and_verdicts(self):
        spec = DgpSpec("var1", n=64, p=4, phi=0.5)
        sch = make_blocks(64, 8)
        model = estimate_gaussian_model(spec)
        rho = estimate_rhos(spec, sch, RADEMACHER, model, 2000, seed=4)
        params = TailParams(a=2.0, b=0.1, gamma=1.0, phi=0.5)
        report = theorem1_bound(spec, sch, RADEMACHER, 1.0, 2.0, 1.0,
                                4000, rho, "subexp", seed=5, tail_params=params)
        names = {m.name: m.verdict for m in report.margins}
        assert names["moment-bound"] != "violated"
        assert names["hoeffding-step"] != "violated"


class TestCdfIntegralIdentity:
    def test_two_routes_agree(self):
        spec = DgpSpec("bounded_rademacher", n=16, p=2)
        out = cdf_integral_check(spec, POWER2, 1.0, 20_000, seed=9)
        assert out["relative_gap"] < 0.02

    def test_requires_bounded_support(self):
        with pytest.raises(ValueError, match="support"):
            cdf_integral_check(DgpSpec("iid_gaussian", n=8, p=1), POWER2,
                               1.0, 2000, seed=0)
