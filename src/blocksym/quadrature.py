"""Adaptive quadrature used for every integral of a gauge derivative.

Every remainder term is the quadrature value of its integral definition,
except in theorem1's moment bound, which uses the larger of the quadrature
R1 and its n-scaled closed-form variant (see ``remainders``). Integration is
adaptive Gauss-Kronrod (QUADPACK) driven to a relative tolerance. Inside a
``recorded_integrals()`` block each integral appends its range, its value,
QUADPACK's absolute error estimate and the subintervals it used to the
block's list, in call order.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Callable, Optional

from scipy import integrate

REL_TOL = 1e-10

# The records of the innermost open ``recorded_integrals()`` block; a context
# variable, so threads and tasks running blocks of their own never share one.
_records: ContextVar[Optional[list]] = ContextVar("_records", default=None)


@contextlib.contextmanager
def recorded_integrals():
    """Yield a list to which every integral evaluated inside the block
    appends what ``run_meta.json`` says of it."""
    records = []
    token = _records.set(records)
    try:
        yield records
    finally:
        _records.reset(token)


class QuadratureError(RuntimeError):
    """The adaptive integrator failed to reach the requested tolerance."""


def integrate_to_tolerance(
    f: Callable[[float], float],
    lower: float,
    upper: float,
) -> float:
    """Integrate ``f`` over [lower, upper] to relative tolerance ``REL_TOL``.

    Raises QuadratureError with the integrator's diagnostics when convergence
    is not achieved. Inside a ``recorded_integrals()`` block a converged
    integral is recorded; an empty range evaluates nothing and records
    nothing.
    """
    if upper < lower:
        raise ValueError(f"empty integration range [{lower}, {upper}]")
    if upper == lower:
        return 0.0
    out = integrate.quad(
        f, lower, upper, epsabs=0.0, epsrel=REL_TOL, limit=500, full_output=True
    )
    value, abserr = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(
            f"quadrature did not converge on [{lower}, {upper}]: {out[3]} "
            f"(last estimate {value!r}, abs error {abserr!r})"
        )
    records = _records.get()
    if records is not None:
        records.append({"lower": float(lower), "upper": float(upper), "value": float(value),
                        "abserr": float(abserr), "subintervals": int(out[2]["last"])})
    return float(value)
