import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from blocksym.psi import CustomPsi, PsiSpec, psi_eval
from blocksym.remainders import (
    SubexpBound,
    TailParams,
    VacuousBoundError,
    concentration_general,
    concentration_lq,
    concentration_subexp,
    fit_subexp_envelope,
    optimal_truncation,
    optimal_truncation_forms,
    power_R1_nscaled,
    remainder_R1,
    remainder_R2,
    remainder_Rn,
)
from conftest import subexp_total_bound

E = math.e


# Closed forms of the power-gauge blocking remainder R_n: the substitution
# form and its n-scaled variant, which carries an extra n**(-q/2).
def power_Rn_closed_form(q, U, rho_sum):
    return rho_sum * U**q


def power_Rn_nscaled(q, n, U, rho_sum):
    return rho_sum * U**q * n ** (-q / 2.0)


# The substitution form of the power-gauge split remainder R1.
def power_R1_closed_form(q, U, rho_sum):
    return 2.0 ** (q - 2.0) * rho_sum * U**q


class TestBlockingRemainders:
    def test_base_linear_gauge(self):
        # q=1: the value is rho_sum * U.
        assert remainder_Rn(PsiSpec("power", q=1.0), 2.0, 0.1) == pytest.approx(0.2)

    def test_base_square_gauge(self):
        assert remainder_Rn(PsiSpec("power", q=2.0), 2.0, 0.1) == pytest.approx(0.4)

    def test_zero_distance(self):
        assert remainder_Rn(PsiSpec("power", q=2.0), 1.0, 0.0) == 0.0

    def test_split_linear_gauge(self):
        assert remainder_R1(PsiSpec("power", q=1.0), 2.0, 0.1) == pytest.approx(0.1)

    def test_split_square_gauge(self):
        assert remainder_R1(PsiSpec("power", q=2.0), 2.0, 0.1) == pytest.approx(0.4)

    def test_split_vanishes_at_zero_level(self):
        assert remainder_R1(PsiSpec("power", q=2.0), 0.0, 0.1) == 0.0

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 4.0])
    @pytest.mark.parametrize("U", [0.1, 1.0, 10.0])
    def test_quadrature_matches_substitution_closed_forms(self, q, U):
        psi = PsiSpec("power", q=q)
        rho_sum = 0.37
        assert remainder_Rn(psi, U, rho_sum) == pytest.approx(
            power_Rn_closed_form(q, U, rho_sum), rel=1e-9
        )
        assert remainder_R1(psi, U, rho_sum) == pytest.approx(
            power_R1_closed_form(q, U, rho_sum), rel=1e-9
        )

    def test_nscaled_variant_differs_by_documented_factor(self):
        q, n, U, rho_sum = 2.0, 64, 1.5, 0.2
        assert power_Rn_nscaled(q, n, U, rho_sum) == pytest.approx(
            power_Rn_closed_form(q, U, rho_sum) * n ** (-q / 2)
        )
        assert power_R1_nscaled(q, n, U, rho_sum) == pytest.approx(
            power_R1_closed_form(q, U, rho_sum) * 4.0 * n ** (-q / 2)
        )

    def test_nscaled_overflow_is_inf(self):
        # U**q past the float range makes R1_nscaled inf, which theorem1's
        # margin names, where it once raised OverflowError; in range it is
        # the product bit for bit.
        assert power_R1_nscaled(2.0, 16, 1e300, 0.1) == math.inf
        assert power_R1_nscaled(2.0, 16, 1e300, 0.0) == 0.0
        q, n, U, rho_sum = 3.0, 64, 1.7, 0.2
        assert power_R1_nscaled(q, n, U, rho_sum) == 2.0**q * U**q * n ** (-q / 2.0) * rho_sum

    def test_exponential_gauge_integral(self):
        # psi = expm1(a v): the split integral has the antiderivative
        # (sqrt(n) / 2) (exp(2 a U) - 1), so R1 = (rho / 4) (exp(2 a U) - 1).
        a, U, rho = 0.7, 1.3, 0.4
        psi = PsiSpec("exponential", a=a, b=1.0)
        expected = 0.25 * rho * (math.exp(2 * a * U) - 1.0)
        assert remainder_R1(psi, U, rho) == pytest.approx(expected, rel=1e-9)


# Each gauge with its derivative, written out here as the reference for the
# integral definition of the remainders.
def _power(q):
    return PsiSpec("power", q=q), lambda u: q * u ** (q - 1.0)


def _exponential(a, b):
    return (PsiSpec("exponential", a=a, b=b),
            lambda u: a * b * u ** (b - 1.0) * math.exp(a * u**b))


GAUGES_WITH_DERIVATIVES = {
    **{f"power-{q}": _power(q) for q in (1.0, 1.5, 2.0, 4.0)},
    **{f"exponential-{a}-{b}": _exponential(a, b) for a, b in ((1.0, 1.0), (0.5, 2.0),
                                                                 (2.0, 1.5))},
    "custom-cube": (CustomPsi(eval_fn=lambda x: np.asarray(x) ** 3, grid_upper=10.0),
                    lambda u: 3.0 * u**2),
}


@pytest.mark.parametrize("name", GAUGES_WITH_DERIVATIVES)
@pytest.mark.parametrize("u", [0.05, 0.7, 3.4])
def test_reference_derivatives_match_the_gauges(name, u):
    # Each reference derivative agrees with a central difference of psi_eval
    # up to 3.4 = 2 U, the largest argument the integrands below reach, so
    # the integral definitions integrate the slopes of the gauges themselves.
    psi, deriv = GAUGES_WITH_DERIVATIVES[name]
    h = 1e-6 * max(1.0, u)
    oracle = (psi_eval(psi, u + h) - psi_eval(psi, u - h)) / (2 * h)
    assert deriv(u) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("name", GAUGES_WITH_DERIVATIVES)
@pytest.mark.parametrize("n", [16, 1024])
@pytest.mark.parametrize("U", [0.1, 1.0, 1.7])
def test_closed_forms_equal_the_integral_definitions(name, n, U):
    # R_n = rho_sum / sqrt(n) int_0^{sqrt(n) U} psi'(v / sqrt(n)) dv and
    # R1 = rho_sum / (2 sqrt(n)) int_0^{sqrt(n) U} psi'(2 v / sqrt(n)) dv, by
    # adaptive quadrature of the analytic derivative, against the closed forms.
    psi, deriv = GAUGES_WITH_DERIVATIVES[name]
    rho_sum, root_n = 0.37, math.sqrt(n)

    def integral(scale):
        value, _ = integrate.quad(lambda v: deriv(scale * v / root_n), 0.0, root_n * U,
                                  epsabs=0.0, epsrel=1e-12, limit=500)
        return value / root_n

    assert remainder_Rn(psi, U, rho_sum) == pytest.approx(rho_sum * integral(1.0), rel=1e-9)
    assert remainder_R1(psi, U, rho_sum) == pytest.approx(rho_sum * integral(2.0) / 2.0,
                                                          rel=1e-9)


class TestTruncationRemainder:
    def test_zero_tail(self):
        assert remainder_R2(2.0, 0.0, 5.0) == 0.0

    def test_unit_tail(self):
        assert remainder_R2(2.0, 1.0, 6.0) == 3.0

    def test_direct_arithmetic(self):
        assert remainder_R2(2.0, 0.04, 5.0) == pytest.approx(0.5)

    def test_hoelder_exponent_validated(self):
        with pytest.raises(ValueError, match="r"):
            remainder_R2(1.0, 0.5, 1.0)


class TestConcentrationGeneral:
    def test_direct_evaluation(self):
        # ln p = 2 and pbar^{-1} ln p = e^10 gives 2 * 2 / 10.
        assert concentration_general(E**2, 2.0 * math.exp(-10.0)) == pytest.approx(0.4)

    def test_zero_pbar_gives_zero(self):
        assert concentration_general(10, 0.0) == 0.0

    def test_monotone_to_zero(self):
        values = [concentration_general(50, pbar) for pbar in (0.1, 0.01, 0.001)]
        assert values == sorted(values, reverse=True)

    def test_clamped_when_vacuous_scale(self):
        assert concentration_general(E**E, 1.0) == 1.0

    def test_precondition(self):
        with pytest.raises(VacuousBoundError):
            concentration_general(2, 0.9)


class TestConcentrationLq:
    def test_markov_substitution_identity(self):
        p, U, q, moment = 40, 2.0, 2.0, 0.03
        assert concentration_lq(p, U, q, moment) == pytest.approx(
            concentration_general(p, moment / U**q)
        )

    def test_direct_arithmetic(self):
        # U^q / moment = e^10 / 2 and ln p = 2: 4 / ln(e^10) = 0.4.
        assert concentration_lq(E**2, 1.0, 1.0, 2.0 * math.exp(-10.0)) == pytest.approx(0.4)

    def test_monotone_in_level(self):
        a = concentration_lq(40, 1.0, 2.0, 0.001)
        b = concentration_lq(40, 2.0, 2.0, 0.001)
        assert b < a < 1.0

    @pytest.mark.parametrize("U, q", [(1e-200, 2.0), (1e-100, 4.0), (1e-300, 1.5)])
    def test_underflowed_power_clamps_pbar_to_one(self, U, q):
        # U**q underflows to 0: Markov's pbar clamps to 1 before any
        # division, where it once raised ZeroDivisionError.
        assert U**q == 0.0
        assert concentration_lq(40, U, q, 0.03) == concentration_general(40, 1.0)

    def test_overflowed_power_gives_pbar_zero(self):
        # U**q overflows the float range, so pbar = moment / U**q is 0.
        with pytest.raises(OverflowError):
            1e300**2.0
        assert concentration_lq(40, 1e300, 2.0, 0.03) == concentration_general(40, 0.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(U=st.floats(1e-3, 1e3), q=st.floats(1.0, 8.0), moment=st.floats(0.0, 10.0))
    def test_in_range_values_are_bit_identical(self, U, q, moment):
        # Where U**q is a normal float, the clamp before the division gives
        # min(1, moment / U**q), bit for bit.
        assert concentration_lq(40, U, q, moment) == concentration_general(
            40, min(1.0, moment / U**q))


class TestConcentrationSubexp:
    def test_vacuous_at_small_scale(self):
        # ln ln p = 1 and n^phi U^phi = e: dominant term e / e = 1, clamped.
        params = TailParams(a=1.0, b=1.0, gamma=1.0, phi=0.5)
        n = 739
        out = concentration_subexp(E**E, n, E**2 / n, params)
        assert isinstance(out, SubexpBound)
        assert out.value == 1.0

    def test_monotone_in_n(self):
        params = TailParams(a=1.0, b=1.0, gamma=1.0, phi=0.5)
        values = [concentration_subexp(100, n, 1.0, params).value for n in (10, 100, 1000)]
        assert values == sorted(values, reverse=True)

    def test_two_term_example(self):
        # n = 10^4, U = 1, phi = 0.5, gamma = 1, a = b = 1, p = e^e:
        # lambda = 100, dominant = e / 100, second term e^100 / (100 e^10000).
        params = TailParams(a=1.0, b=1.0, gamma=1.0, phi=0.5)
        out = concentration_subexp(E**E, 10_000, 1.0, params)
        assert out.value == pytest.approx(E / 100.0)
        assert out.second_term == pytest.approx(
            math.exp(100.0 - 10_000.0) / 100.0, rel=1e-9
        )
        assert not out.warning

    def test_warning_when_second_term_material(self):
        # Weak decay makes the dropped term non-negligible.
        params = TailParams(a=5.0, b=1e-4, gamma=1.0, phi=0.5)
        out = concentration_subexp(100, 16, 0.5, params)
        assert out.warning

    def test_domain(self):
        params = TailParams(a=1.0, b=1.0, gamma=1.0, phi=0.5)
        with pytest.raises(VacuousBoundError):
            concentration_subexp(2, 100, 1.0, params)

    def test_overflowed_powers_are_inf(self):
        # U**gamma overflows at U = 1e300 and gamma = 2: the decay term is
        # inf, so the dropped term is 0, where it once raised OverflowError.
        with pytest.raises(OverflowError):
            1e300**2.0
        out = concentration_subexp(40, 16, 1e300, TailParams(a=1.0, b=1.0, gamma=2.0, phi=0.5))
        assert out.second_term == 0.0 and 0.0 < out.value < 1e-140 and not out.warning

    def test_tail_params_validation(self):
        with pytest.raises(ValueError):
            TailParams(a=1.0, b=1.0, gamma=1.0, phi=1.0)
        with pytest.raises(ValueError):
            TailParams(a=0.0, b=1.0, gamma=1.0, phi=0.5)


class TestOptimalTruncation:
    def test_both_forms_agree_on_random_tuples(self):
        rng = np.random.default_rng(12345)
        for _ in range(100):
            q = rng.uniform(1.0, 4.0)
            r = rng.uniform(1.1, 5.0)
            phi = rng.uniform(0.05, 2.0)
            rho_sum = rng.uniform(1e-4, 1.5)
            p = rng.uniform(3.0, 1e6)
            n = int(rng.integers(4, 100_000))
            m = rng.uniform(0.1, 50.0)
            u1, u2 = optimal_truncation_forms(q, r, phi, rho_sum, p, n, m)
            assert abs(u1 - u2) <= 1e-12 * abs(u1)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            optimal_truncation(1.0, 2.0, 0.5, 0.0, 10, 100, 1.0)

    def test_fixture_value(self):
        # q=1, r=2, phi=1/2, rho_sum=0.1, p=e^e, n=10^4, M=1: direct
        # evaluation of the closed form, frozen after first computation.
        value = optimal_truncation(1.0, 2.0, 0.5, 0.1, E**E, 10_000, 1.0)
        direct = ((0.5 / 1.0) * 0.5 * 10.0 * (E / (100.0 * 1.0)) ** 0.5) ** (1.0 / 1.25)
        assert value == pytest.approx(direct, rel=1e-12)

    def test_smaller_distance_pushes_level_up(self):
        lo = optimal_truncation(2.0, 2.0, 0.5, 0.01, 20, 128, 1.0)
        hi = optimal_truncation(2.0, 2.0, 0.5, 0.10, 20, 128, 1.0)
        assert lo > hi

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.floats(1.0, 4.0),
        r=st.floats(1.1, 5.0),
        phi=st.floats(0.05, 2.0),
        rho_sum=st.floats(1e-4, 1.5),
        n=st.integers(4, 100_000),
        m=st.floats(0.1, 50.0),
    )
    def test_minimizes_the_subexp_objective(self, q, r, phi, rho_sum, n, m):
        p = 50
        u_star = optimal_truncation(q, r, phi, rho_sum, p, n, m)
        at_star = subexp_total_bound(q, r, phi, rho_sum, p, n, m, u_star)
        for factor in (0.5, 0.9, 1.1, 2.0):
            assert at_star <= subexp_total_bound(
                q, r, phi, rho_sum, p, n, m, factor * u_star
            ) * (1 + 1e-9)


class TestCombinedRemainder:
    """R1 + R2 with the sub-exponential bound on the exceedance probability."""

    @staticmethod
    def parts(psi, n, U, rho_sum, r, psi_norm, p, params):
        tail = concentration_subexp(p, n, U, params).value
        return remainder_R1(psi, U, rho_sum), remainder_R2(r, tail, psi_norm)

    def test_all_zero(self):
        # No dependence, no exceedance and a zero gauge norm leave nothing.
        r1 = remainder_R1(PsiSpec("power", q=2.0), 1.0, 0.0)
        r2 = remainder_R2(2.0, 0.0, 0.0)
        assert (r1, r2, r1 + r2) == (0.0, 0.0, 0.0)

    def test_monotone_in_level(self):
        # Blocking part grows with the level; sub-exponential tail part
        # shrinks.
        psi = PsiSpec("power", q=2.0)
        params = TailParams(a=2.0, b=0.5, gamma=1.0, phi=0.5)
        grid = np.linspace(0.5, 4.0, 12)
        r1s, r2s = zip(*(self.parts(psi, 128, float(U), 0.1, 2.0, 8.0, 20, params)
                         for U in grid))
        assert all(x <= y + 1e-12 for x, y in zip(r1s, r1s[1:]))
        assert all(x >= y - 1e-12 for x, y in zip(r2s, r2s[1:]))

    def test_total_near_optimum_on_quadrature_objective(self):
        # Square gauge: the closed-form minimizer also beats the halved and
        # doubled levels for the total of the remainders R1 and R2.
        q, r, phi, rho_sum, p, n = 2.0, 2.0, 0.5, 0.1, 20, 128
        m = 1.7
        psi = PsiSpec("power", q=q)
        params = TailParams(a=2.0, b=0.5, gamma=1.0, phi=phi)
        psi_norm = 2.0**q * m**q

        def total(U):
            return sum(self.parts(psi, n, U, rho_sum, r, psi_norm, p, params))

        u_star = optimal_truncation(q, r, phi, rho_sum, p, n, m)
        assert total(u_star) <= total(0.5 * u_star)
        assert total(u_star) <= total(2.0 * u_star)


class TestEnvelopeFit:
    def test_envelope_majorizes_grid(self):
        levels = np.array([0.5, 1.0, 1.5])
        tails = np.array([0.2, 0.05, 0.001])
        params = fit_subexp_envelope(levels, tails, n=64, gamma=1.0, amplitude=2.0,
                                     phi=0.5)
        env = params.a * np.exp(-params.b * 64.0 * levels)
        assert np.all(env >= tails - 1e-12)
        assert params.b > 0

    def test_all_zero_tails_still_positive_rate(self):
        params = fit_subexp_envelope(np.array([1.0, 2.0]), np.zeros(2), n=64, gamma=1.0,
                                     amplitude=2.0, phi=0.5)
        assert params.b > 0

    def test_underflowed_rate_stays_positive(self):
        # At levels near 1e300 and gamma = 2 the fallback rate's denominator
        # overflows; the rate is then the smallest normal float, so the
        # constants stay valid, where TailParams once rejected b = 0.
        params = fit_subexp_envelope(np.array([1e300, 2e300]), np.zeros(2), n=16, gamma=2.0,
                                     amplitude=2.0, phi=0.5)
        assert params.b == sys.float_info.min

    @settings(max_examples=100, deadline=None)
    @given(level=st.floats(1e-3, 1e3), gamma=st.floats(0.6, 3.0), prob=st.floats(0.0, 0.5))
    def test_in_range_rates_are_bit_identical(self, level, gamma, prob):
        # Where the powers are normal floats, the rate is the formula's.
        params = fit_subexp_envelope(np.array([level]), np.array([prob]), n=64, gamma=gamma,
                                     amplitude=2.0, phi=0.5)
        top = math.log(2.0) - math.log(prob) if prob > 0 else math.log(2.0) + 12 * math.log(10.0)
        assert params.b == top / (64**gamma * np.float64(level) ** gamma)

    def test_amplitude_too_small(self):
        with pytest.raises(ValueError, match="amplitude"):
            fit_subexp_envelope(np.array([0.5]), np.array([0.9]), n=64, gamma=1.0,
                                amplitude=0.5, phi=0.5)
