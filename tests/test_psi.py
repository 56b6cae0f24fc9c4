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
    psi_eval,
    psi_moment_norm,
)
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
    # An integer past the float range, on which math.isfinite raises.
    (dict(kind="power", q=10**400), "q"),
])
def test_non_finite_parameter_named(kwargs, field):
    with pytest.raises(PsiValidationError, match=f"^{field}: "):
        PsiSpec(**kwargs)


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
        custom = CustomPsi(eval_fn=lambda x: np.asarray(x) ** 3, grid_upper=10.0)
        assert psi_eval(custom, 2.0) == 8.0
        with pytest.raises(PsiValidationError):
            CustomPsi(eval_fn=lambda x: np.sqrt(np.asarray(x)), grid_upper=10.0)


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
