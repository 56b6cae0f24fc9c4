"""Adaptive quadrature used for every integral of a gauge derivative.

Every remainder term is the quadrature value of its integral definition,
except in theorem1's moment bound, which uses the larger of the quadrature
R1 and its n-scaled closed-form variant (see ``remainders``). Integration is
adaptive Gauss-Kronrod (QUADPACK) driven to a relative tolerance.
"""

from __future__ import annotations

from typing import Callable

from scipy import integrate

REL_TOL = 1e-10


class QuadratureError(RuntimeError):
    """The adaptive integrator failed to reach the requested tolerance."""


def integrate_to_tolerance(
    f: Callable[[float], float],
    lower: float,
    upper: float,
) -> float:
    """Integrate ``f`` over [lower, upper] to relative tolerance ``REL_TOL``.

    Raises QuadratureError with the integrator's diagnostics when convergence
    is not achieved.
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
    return float(value)
