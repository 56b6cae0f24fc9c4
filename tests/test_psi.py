import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksym.processes import DgpSpec
from blocksym.psi import (
    CustomPsi,
    MomentExplosionError,
    PsiDomainError,
    PsiSpec,
    PsiValidationError,
    check_convexity,
    psi_deriv,
    psi_eval,
    psi_moment_norm,
)
from blocksym.quadrature import integrate_to_tolerance
from conftest import marginal_pass

POWER2 = PsiSpec("power", q=2.0)
POWER1 = PsiSpec("power", q=1.0)
EXP11 = PsiSpec("exponential", a=1.0, b=1.0)

SHIPPED = [
    POWER1,
    PsiSpec("power", q=1.5),
    POWER2,
    PsiSpec("power", q=4.0),
    EXP11,
    PsiSpec("exponential", a=2.0, b=1.0),
    PsiSpec("exponential", a=0.1, b=1.2),
]


class TestEval:
    def test_power_square(self):
        assert psi_eval(POWER2, 3.0) == 9.0

    def test_power_identity(self):
        assert psi_eval(POWER1, 5.0) == 5.0

    def test_exponential_at_zero(self):
        assert psi_eval(EXP11, 0.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(PsiDomainError):
            psi_eval(POWER2, -0.1)

    def test_validation(self):
        with pytest.raises(PsiValidationError):
            PsiSpec("power", q=0.5)
        with pytest.raises(PsiValidationError):
            PsiSpec("exponential", a=-1.0)
        with pytest.raises(PsiValidationError):
            PsiSpec("exponential", a=1.0, b=0.5)


@pytest.mark.parametrize("kwargs, field", [
    (dict(kind="power", q=math.inf), "q"),
    (dict(kind="power", q=math.nan), "q"),
    (dict(kind="exponential", a=math.nan), "a"),
    (dict(kind="exponential", a=1.0, b=math.inf), "b"),
])
def test_non_finite_parameter_named(kwargs, field):
    with pytest.raises(PsiValidationError, match=f"^{field}: "):
        PsiSpec(**kwargs)


class TestDeriv:
    def test_power_values(self):
        assert psi_deriv(POWER2, 3.0) == 6.0

    def test_power_one_at_zero(self):
        # 0**0 = 1 convention keeps the q = 1 derivative constant.
        assert psi_deriv(POWER1, 0.0) == 1.0

    def test_vanishes_at_zero_above_one(self):
        assert psi_deriv(POWER2, 0.0) == 0.0
        assert psi_deriv(PsiSpec("exponential", a=1.0, b=2.0), 0.0) == 0.0

    @pytest.mark.parametrize("spec", SHIPPED)
    @pytest.mark.parametrize("u", [0.05, 0.7, 3.0, 12.0])
    def test_against_central_difference(self, spec, u):
        h = 1e-6 * max(1.0, u)
        oracle = (psi_eval(spec, u + h) - psi_eval(spec, u - h)) / (2 * h)
        assert psi_deriv(spec, u) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("spec", SHIPPED)
    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
    def test_integral_of_derivative(self, spec, T):
        value = integrate_to_tolerance(lambda v: psi_deriv(spec, v), 0.0, T)
        assert value == pytest.approx(psi_eval(spec, T), rel=1e-8)


class TestConvexity:
    @pytest.mark.parametrize("spec", SHIPPED)
    def test_shipped_kinds_pass_on_grid(self, spec):
        upper = 100.0
        check_convexity(lambda x: psi_eval(spec, x), upper=upper)

    def test_concave_rejected(self):
        with pytest.raises(PsiValidationError, match="convex"):
            check_convexity(np.sqrt, upper=10.0)

    def test_nonzero_at_origin_rejected(self):
        with pytest.raises(PsiValidationError, match="vanish"):
            check_convexity(lambda x: x + 1.0, upper=10.0)

    def test_custom_psi_validates(self):
        custom = CustomPsi(
            eval_fn=lambda x: np.asarray(x) ** 3,
            deriv_fn=lambda u: 3.0 * np.asarray(u) ** 2,
            grid_upper=10.0,
        )
        assert psi_eval(custom, 2.0) == 8.0
        assert psi_deriv(custom, 2.0) == 12.0
        with pytest.raises(PsiValidationError):
            CustomPsi(
                eval_fn=lambda x: np.sqrt(np.asarray(x)),
                deriv_fn=lambda u: u,
                grid_upper=10.0,
            )


@settings(max_examples=50, deadline=None)
@given(
    spec=st.sampled_from(SHIPPED),
    xs=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=20),
)
def test_monotone_on_sorted_grids(spec, xs):
    grid = np.sort(np.asarray(xs))
    vals = psi_eval(spec, grid)
    assert np.all(np.diff(vals) >= -1e-12)


class TestMomentNorm:
    def test_zero_law(self):
        zero = DgpSpec("linear_process", n=4, p=2, coeffs=(0.0,))
        est = psi_moment_norm(POWER2, marginal_pass(zero, 2000, 1), r=2.0)
        assert est.value == 0.0
        assert est.se == 0.0

    def test_gaussian_fourth_moment(self):
        # power q=2, r=2, scalar standard normal: the norm is
        # (E (2|x|)^4)^(1/2) = sqrt(48).
        law = DgpSpec("iid_gaussian", n=1, p=1)
        est = psi_moment_norm(POWER2, marginal_pass(law, 40_000, 3), r=2.0)
        assert abs(est.value - math.sqrt(48.0)) < 3 * est.se

    def test_bounded_sign_exact(self):
        law = DgpSpec("bounded_rademacher", n=1, p=1)
        est = psi_moment_norm(POWER1, marginal_pass(law, 2000, 5), r=2.0)
        assert est.value == pytest.approx(2.0)
        assert est.se == pytest.approx(0.0, abs=1e-12)

    def test_explosion_detected(self):
        # Heavy exponential gauge against Gaussian tails overflows to inf.
        heavy = PsiSpec("exponential", a=50.0, b=4.0)
        law = DgpSpec("iid_gaussian", n=1, p=1)
        with pytest.raises(MomentExplosionError, match="not finite"):
            psi_moment_norm(heavy, marginal_pass(law, 2000, 7), r=2.0)

    def test_rejects_bad_arguments(self):
        law = DgpSpec("iid_gaussian", n=1, p=1)
        with pytest.raises(ValueError, match="r"):
            psi_moment_norm(POWER2, marginal_pass(law, 2000, 0), r=1.0)
        with pytest.raises(ValueError, match="reps"):
            psi_moment_norm(POWER2, marginal_pass(law, 10, 0), r=2.0)
