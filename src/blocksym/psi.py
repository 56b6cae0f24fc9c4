"""Convex gauge functions: evaluation, moment norms, the convexity check.

Two parametric families are shipped: the power map x**q with q >= 1, and the
centered exponential expm1(a * x**b) with a > 0 and b >= 1. Both vanish at
zero and are non-decreasing and convex on [0, inf). Exponents b below one
are rejected because the exponential family loses convexity near the origin
there. User-supplied gauges enter through CustomPsi, whose convexity is
checked on a grid at construction. No derivative is needed: every remainder
integral of psi' has a closed form in psi (see ``remainders``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .blocking import StreamStatistics
from .processes import Spec, _is_real, marginal_spec
from .seeding import PURPOSE_NORM

# The convexity check's grid size and its tolerance for rounding.
_GRID_POINTS = 201
_GRID_TOL = 1e-9


class PsiDomainError(ValueError):
    """Argument outside [0, inf)."""


class PsiValidationError(ValueError):
    """Gauge parameters violate the convex non-decreasing contract."""


class MomentExplosionError(RuntimeError):
    """Monte Carlo moment average is not finite."""


@dataclass(frozen=True)
class PsiSpec(Spec):
    """Parametric gauge: ``power`` uses q; ``exponential`` uses (a, b)."""

    kind: str
    q: float = 2.0
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("power", "exponential"):
            raise PsiValidationError(f"kind: unknown gauge kind {self.kind!r}")
        for name in ("q", "a", "b"):
            value = getattr(self, name)
            if not _is_real(value):
                raise PsiValidationError(f"{name}: expected a number, got {value!r}")
            if not math.isfinite(value):
                raise PsiValidationError(f"{name}: expected a finite number, got {value!r}")
        if self.kind == "power" and self.q < 1:
            raise PsiValidationError(f"q: power exponent must be >= 1, got {self.q}")
        if self.kind == "exponential":
            if self.a <= 0:
                raise PsiValidationError(f"a: scale must be > 0, got {self.a}")
            if self.b < 1:
                raise PsiValidationError(
                    f"b: exponent must be >= 1 for convexity on [0, inf), got {self.b}"
                )

    def reads(self) -> tuple:
        return ("kind", "q") if self.kind == "power" else ("kind", "a", "b")


@dataclass(frozen=True)
class CustomPsi:
    """User-supplied gauge; construction runs the convexity grid check on eval_fn."""

    eval_fn: Callable
    grid_upper: float = 100.0

    def __post_init__(self):
        check_convexity(self.eval_fn, upper=self.grid_upper)


PsiLike = Union[PsiSpec, CustomPsi]


def _require_nonneg(x, what: str):
    if np.any(np.asarray(x) < 0):
        raise PsiDomainError(f"{what} must be >= 0")


def psi_eval(spec: PsiLike, x):
    """Gauge value at x >= 0; exactly zero at zero. Accepts arrays."""
    _require_nonneg(x, "x")
    x = np.asarray(x, dtype=float)
    if isinstance(spec, CustomPsi):
        out = np.asarray(spec.eval_fn(x), dtype=float)
    elif spec.kind == "power":
        out = x**spec.q
    else:
        with np.errstate(over="ignore"):
            out = np.expm1(spec.a * x**spec.b)
    return float(out) if out.ndim == 0 else out


def check_convexity(psi_fn: Callable, upper: float = 100.0) -> None:
    """Grid check that psi_fn(0) = 0 and slopes are non-decreasing.

    Raises PsiValidationError on failure and ValueError when the gauge
    overflows on the grid (shrink ``upper`` in that case).
    """
    grid = np.linspace(0.0, upper, _GRID_POINTS)
    vals = np.asarray(psi_fn(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("gauge overflows on the check grid; use a smaller upper bound")
    if abs(vals[0]) > _GRID_TOL:
        raise PsiValidationError(f"gauge must vanish at 0, got {vals[0]!r}")
    if np.any(np.diff(vals) < -_GRID_TOL):
        raise PsiValidationError("gauge is not non-decreasing on the grid")
    slopes = np.diff(vals) / np.diff(grid)
    if np.any(np.diff(slopes) < -_GRID_TOL):
        raise PsiValidationError("gauge is not convex on the grid")


@dataclass(frozen=True)
class MomentNormEstimate:
    """Monte Carlo L_r-norm estimate with a delta-method standard error."""

    value: float
    se: float
    reps: int


def psi_moment_norm(spec: PsiLike, marginal: StreamStatistics, r: float) -> MomentNormEstimate:
    """L_r norm of psi(2 * max_i |x[t, i]|) over the stationary marginal.

    ``marginal`` holds the statistics of one-row panels of the marginal law
    (``processes.marginal_spec``), whose column means are the rows
    themselves. All shipped generator kinds are stationary, so a single time
    index carries the maximum over t, and each replication is one fresh row:
    iid samples and a clean standard error. Any other pass is rejected with a
    ``ValueError`` naming its request beside that of the marginal rows.
    """
    if r <= 1:
        raise ValueError(f"Hoelder exponent r must be > 1, got {r}")
    marginal.require("marginal", marginal_spec(marginal.spec), marginal.seed, PURPOSE_NORM)
    reps = marginal.reps
    if reps < 1000:
        raise ValueError(f"need reps >= 1000 for a stable norm estimate, got {reps}")
    values = psi_eval(spec, 2.0 * marginal.max_abs_mean)
    with np.errstate(over="ignore"):
        powered = np.asarray(values) ** r
    if not np.all(np.isfinite(powered)):
        raise MomentExplosionError(
            "moment average of psi(2 max|x|)^r over the marginal rows is not "
            "finite; the gauge grows too fast for this tail"
        )
    mean = float(np.mean(powered))
    se_mean = float(np.std(powered, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    value = mean ** (1.0 / r)
    # Delta method for the 1/r power of the mean.
    se = se_mean * value / (r * mean) if mean > 0 else 0.0
    return MomentNormEstimate(value=value, se=se, reps=reps)
