"""Remainder formulas, concentration bounds, and the optimal truncation point.

The blocking remainders are defined as integrals of the gauge derivative,

    base remainder   rho_sum / sqrt(n) * int_0^{sqrt(n) U} psi'(v / sqrt(n)) dv
    split remainder  rho_sum / (2 sqrt(n)) * int_0^{sqrt(n) U} psi'(2 v / sqrt(n)) dv

and the substitution u = v / sqrt(n) gives each in closed form at every n:
every admitted gauge vanishes at zero and is convex, hence absolutely
continuous, so int_0^U psi'(s u) du = psi(s U) / s, the base remainder is
rho_sum * psi(U) and the split one rho_sum * psi(2 U) / 4; for power gauges
rho_sum * U**q and 2**(q-2) * rho_sum * U**q. An n-scaled closed-form
variant of the split remainder R1, carrying an extra n**(-q/2) factor,
circulates for the power case; it disagrees with direct substitution.
theorem1's moment bound reports both R1 values and uses the larger,
R1_used = max(R1_quadrature, R1_nscaled). The truncation remainder is
(1/2) * tail_prob**((r-1)/r) * psi_norm.

Concentration bounds on P(max_i |mean_i| >= U) come from a log-exp bound with
tuning parameter lambda: a general version using only the worst per-coordinate
tail, a moment version via Markov, and a sub-exponential version whose
dominant term is ln(p) / (n**phi U**phi ln ln p). All bounds clamp at one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .psi import PsiLike, psi_eval


class VacuousBoundError(ValueError):
    """The bound's precondition fails, so the formula carries no content."""


@dataclass(frozen=True)
class TailParams:
    """Sub-exponential tail constants: P(|mean_i| > x) <= a exp(-b n^g x^g)."""

    a: float
    b: float
    gamma: float
    phi: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.gamma <= 0:
            raise ValueError("tail constants a, b, gamma must all be > 0")
        if not 0.0 < self.phi < self.gamma:
            raise ValueError(
                f"phi must lie strictly inside (0, gamma), got phi={self.phi}, "
                f"gamma={self.gamma}"
            )


def remainder_Rn(psi: PsiLike, U: float, rho_sum: float) -> float:
    """Blocking remainder of the bounded chain, rho_sum * psi(U)."""
    if U <= 0:
        raise ValueError(f"truncation level must be > 0, got {U}")
    if rho_sum < 0:
        raise ValueError(f"rho_sum must be >= 0, got {rho_sum}")
    if rho_sum == 0:
        return 0.0
    return rho_sum * psi_eval(psi, U)


def remainder_R1(psi: PsiLike, U: float, rho_sum: float) -> float:
    """Blocking remainder of the truncated (unbounded) chain, rho_sum * psi(2 U) / 4."""
    if U < 0:
        raise ValueError(f"truncation level must be >= 0, got {U}")
    if rho_sum < 0:
        raise ValueError(f"rho_sum must be >= 0, got {rho_sum}")
    if rho_sum == 0:
        return 0.0
    return rho_sum * psi_eval(psi, 2.0 * U) / 4.0


def remainder_R2(r: float, tail_prob: float, psi_norm: float) -> float:
    """Truncation remainder (1/2) tail_prob**((r-1)/r) * psi_norm."""
    if r <= 1:
        raise ValueError(f"Hoelder exponent r must be > 1, got {r}")
    if not 0.0 <= tail_prob <= 1.0:
        raise ValueError(f"tail_prob must lie in [0, 1], got {tail_prob}")
    if psi_norm < 0:
        raise ValueError(f"psi_norm must be >= 0, got {psi_norm}")
    return 0.5 * tail_prob ** ((r - 1.0) / r) * psi_norm


# The n-scaled power-gauge R1 carries an extra n**(-q/2) factor beside the
# exact substitution form. theorem1 reports it beside the exact R1 and uses
# the larger, R1_used = max(R1_quadrature, R1_nscaled).


def power_R1_nscaled(q: float, n: int, U: float, rho_sum: float) -> float:
    return 2.0**q * U**q * n ** (-q / 2.0) * rho_sum


# ---------------------------------------------------------------------------
# Concentration bounds (all clamp at one; they bound probabilities)
# ---------------------------------------------------------------------------


def concentration_general(p: int, pbar: float) -> float:
    """Moment-free bound 2 ln(p) / ln(ln(p) / pbar).

    pbar is the worst per-coordinate exceedance probability. The log-exp
    tuning parameter is lambda = ln(ln(p) / pbar), which must be positive
    for the bound to carry content.
    """
    if p < 2:
        raise VacuousBoundError(f"need p >= 2, got {p}")
    if not 0.0 <= pbar <= 1.0:
        raise ValueError(f"pbar must lie in [0, 1], got {pbar}")
    log_p = math.log(p)
    if pbar == 0.0:
        return 0.0
    ratio = log_p / pbar
    if ratio <= 1.0:
        raise VacuousBoundError(
            f"vacuous bound: ln(p)/pbar = {ratio:.4g} <= 1, the log-exp "
            f"optimization has no positive tuning parameter"
        )
    return min(1.0, 2.0 * log_p / math.log(ratio))


def concentration_lq(p: int, U: float, q: float, max_mean_moment: float) -> float:
    """Moment bound via Markov: identical to the general bound at
    pbar = max_mean_moment / U**q."""
    if U <= 0:
        raise ValueError(f"truncation level must be > 0, got {U}")
    if max_mean_moment < 0:
        raise ValueError(f"moment must be >= 0, got {max_mean_moment}")
    pbar = min(1.0, max_mean_moment / U**q)
    return concentration_general(p, pbar)


@dataclass(frozen=True)
class SubexpBound:
    """Dominant-term bound with an audit of the dropped proof term.

    ``value`` is ln(p) / (n**phi U**phi ln ln p) clamped at one. ``warning``
    is set when the dropped second term of the log-exp bound exceeds 1% of
    the dominant term, i.e. when the asymptotic absorption is materially
    violated at these finite parameters.
    """

    value: float
    second_term: float
    warning: bool


def concentration_subexp(p: int, n: int, U: float, params: TailParams) -> SubexpBound:
    """Sub-exponential tail bound, dominant term plus dropped-term audit."""
    if p <= math.e:
        raise VacuousBoundError(f"need p > e, got {p}")
    if U <= 0:
        raise ValueError(f"truncation level must be > 0, got {U}")
    log_p = math.log(p)
    log_log_p = math.log(log_p)
    lam = n**params.phi * U**params.phi * log_log_p
    dominant = log_p / lam
    # Second proof term a (ln p)^{n^phi U^phi} / (lam exp(b n^gamma U^gamma)),
    # evaluated in log space to dodge overflow.
    log_second = (
        math.log(params.a)
        + (n**params.phi * U**params.phi) * log_log_p
        - math.log(lam)
        - params.b * n**params.gamma * U**params.gamma
    )
    second = math.exp(log_second) if log_second < 700 else math.inf
    warning = second > 0.01 * dominant
    return SubexpBound(value=min(1.0, dominant), second_term=second, warning=warning)


def fit_subexp_envelope(levels: np.ndarray, tail_probs: np.ndarray, n: int, gamma: float,
                        amplitude: float, phi: float) -> TailParams:
    """Fit b so a exp(-b n^gamma x^gamma), a = ``amplitude``, majorizes the
    observed tails; the constants keep ``gamma`` and ``phi``.

    ``tail_probs`` are per-coordinate exceedance probabilities (worst
    coordinate) at the given levels; b is the largest decay rate consistent
    with the envelope condition at every grid point. Levels with zero
    observed exceedance impose no constraint.
    """
    levels = np.asarray(levels, dtype=float)
    tail_probs = np.asarray(tail_probs, dtype=float)
    if levels.shape != tail_probs.shape or levels.size == 0:
        raise ValueError("levels and tail_probs must be equal-length, nonempty")
    if np.any(levels <= 0):
        raise ValueError("levels must be > 0")
    b = math.inf
    for u, prob in zip(levels, tail_probs):
        if prob <= 0:
            continue
        if prob >= amplitude:
            raise ValueError(
                f"amplitude {amplitude} too small: observed tail {prob} at level {u}"
            )
        b = min(b, (math.log(amplitude) - math.log(prob)) / (n**gamma * u**gamma))
    if not math.isfinite(b):
        # No positive exceedance anywhere: any decay rate works; pick the one
        # that puts the envelope at 1e-12 on the smallest level.
        b = (math.log(amplitude) + 12 * math.log(10.0)) / (n**gamma * levels.min() ** gamma)
    return TailParams(a=amplitude, b=b, gamma=gamma, phi=phi)


# ---------------------------------------------------------------------------
# Optimal truncation and combined remainders
# ---------------------------------------------------------------------------


def optimal_truncation_forms(
    q: float, r: float, phi: float, rho_sum: float, p: int, n: int, M_n: float
) -> tuple[float, float]:
    """Both algebraic arrangements of the minimizing truncation point.

    The arrangements differ only in how the leading constant is grouped,
    (phi/q) * ((r-1)/r) versus phi (r-1) / (q r); they agree to rounding.
    """
    if q < 1 or r <= 1 or phi <= 0 or rho_sum < 0 or M_n <= 0 or n < 1:
        raise ValueError("all arguments must be positive with q >= 1 and r > 1")
    if rho_sum == 0:
        raise ValueError(
            "no blocking penalty; truncation unbounded (the minimizer diverges)"
        )
    if p <= math.e:
        raise VacuousBoundError(f"need p > e, got {p}")
    log_p = math.log(p)
    tail_factor = (log_p / (n**phi * math.log(log_p))) ** ((r - 1.0) / r)
    exponent = 1.0 / (q + phi * (r - 1.0) / r)
    first = ((phi / q) * ((r - 1.0) / r) * (1.0 / rho_sum) * tail_factor * M_n**q) ** exponent
    second = ((phi * (r - 1.0)) / (q * r * rho_sum) * tail_factor * M_n**q) ** exponent
    return first, second


def optimal_truncation(
    q: float, r: float, phi: float, rho_sum: float, p: int, n: int, M_n: float
) -> float:
    """Truncation point minimizing the power/sub-exponential upper bound."""
    return optimal_truncation_forms(q, r, phi, rho_sum, p, n, M_n)[0]


def subexp_total_bound(
    q: float, r: float, phi: float, rho_sum: float, p: int, n: int, M_n: float, U: float
) -> float:
    """Power/sub-exponential combined upper bound as a function of U.

    2**(q-1) * rho_sum * U**q
        + 2**(q-1) * (ln p / (n**phi ln ln p))**((r-1)/r) * M_n**q / U**(phi (r-1)/r)

    This is the objective the optimal truncation point minimizes exactly.
    """
    if U <= 0:
        raise ValueError(f"truncation level must be > 0, got {U}")
    if p <= math.e:
        raise VacuousBoundError(f"need p > e, got {p}")
    log_p = math.log(p)
    s = phi * (r - 1.0) / r
    tail_factor = (log_p / (n**phi * math.log(log_p))) ** ((r - 1.0) / r)
    return 2.0 ** (q - 1.0) * (rho_sum * U**q + tail_factor * M_n**q / U**s)
