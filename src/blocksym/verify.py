"""Monte Carlo and exact-enumeration verification of the inequality chains.

The bounded chain compares E psi(max-abs column mean) against the same gauge
of the block-multiplier statistic plus a blocking remainder, both ways. The
unbounded chain adds the (1/2) psi(2 .) scaling and a truncation remainder;
one builder makes both, with gain 1 or 2.
The moment-bound check tests the maximal q-th moment against the
Hoeffding-factor bound on the quadratic block term plus remainders.

Every Monte Carlo estimator reads a fresh panel per replication (fresh
multipliers and fresh independent copies where a check needs them), and all
expectations are unconditional. The chain verifiers and the tail
estimators draw nothing themselves: they take the statistics of the passes
they read (``blocking.stream_statistics``) from their caller, which draws
each stream once; only the independence reduction draws its own pass. A
chain is one pass of the mid stream: its lhs, mid and rhs are gauges of the
plain and the multiplier statistic of the same panels, and theorem1 reads
its lhs, its quadratic block term and its Hoeffding step from that pass
too. Every gauge value of a Monte Carlo sample goes through one kernel,
which names the replication of an overflow, and every margin through
another, which names the margin of a remainder that is not finite. A pass
without the statistics a verifier reads, or a mid pass with fewer than 1000
replications, is rejected with a ``ValueError`` naming what is missing. Each pass carries
its request, and a verifier reads its spec, seed, block scheme and
multiplier law from the mid pass, so no argument restates them. A mid pass
drawn for another purpose or with copies, or a tail pass or marginal rows of
another spec, seed or purpose than the mid pass, is rejected with a
``ValueError`` naming both requests.

Where estimators need more of the column means they read a reduction that
the pass folded while the stream was drawn. Every such reduction is of the
plain means of the tail stream: the sub-exponential fit reads per-coordinate
tails (``Exceedances`` at ``tail_levels(U)``), the split diagnostic the
largest mean below U (``MaxBelow``) and the coordinate moments their power
sums (``PowerSums`` at order q); the exceedance count reads the tail
stream's maxima. No (reps, p) means are kept. The tail stream, which also
gives rho, stays apart from the mid stream: the remainders built from it
are treated as constants, so they share no panel with the sides they bound.

Both sides of every inequality are read from the same panels, so each margin
and its standard error come from the per-replication differences of its
sides. Verdicts use a three-band rule: ``holds`` when the margin is
nonpositive, ``holds-within-noise`` within three standard errors of those
differences, ``violated`` beyond that. Estimates, margins and reports are
dataclasses written out by ``dataclasses.asdict``, so each lists its report
fields once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy.stats import beta

from .blocking import (
    BlockScheme,
    Exceedances,
    MaxBelow,
    MultiplierSpec,
    PowerSums,
    StreamStatistics,
    batch_block_sums,
    batch_max_abs_mean,
    batch_multiplier_max,
    make_blocks,
    stream_statistics,
)
from .gaussian import RhoEstimate
from .processes import DgpSpec, _linear_filter, marginal_spec
from .psi import PsiLike, PsiSpec, psi_eval, psi_moment_norm
from .remainders import (
    TailParams,
    concentration_lq,
    concentration_subexp,
    power_R1_nscaled,
    remainder_R1,
    remainder_R2,
    remainder_Rn,
)
from .seeding import PURPOSE_LHS, PURPOSE_MID, PURPOSE_NORM, PURPOSE_TAIL

_ENUMERATION_BUDGET = 2**24
_ENUMERATION_CHUNK = 2**18  # array elements per enumeration step


class EnumerationBudgetError(ValueError):
    pass


class NonFiniteGaugeError(RuntimeError):
    """A gauge value or a remainder overflowed; the message names the
    replication or the margin."""


@dataclass(frozen=True)
class ExpectationEstimate:
    mean: float
    se: float
    reps: int
    mode: str = "mc"


@dataclass(frozen=True)
class InequalityCheck:
    """One inequality lhs <= rhs + remainder with its margin and verdict."""

    name: str
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    remainder: float
    margin: float
    se: float
    verdict: str
    two_sided: bool = False

    @property
    def slack(self) -> Optional[float]:
        """(lhs - rhs) / remainder, the share of the remainder that the gap
        between the sides takes; None when the remainder is 0."""
        return None if self.remainder == 0 else (self.lhs - self.rhs) / self.remainder


def verdict_for(margin: float, se: float, two_sided: bool = False) -> str:
    stat = abs(margin) if two_sided else margin
    if stat <= 0:
        return "holds"
    if stat <= 3.0 * se:
        return "holds-within-noise"
    return "violated"


def _inequality(
    name: str,
    lhs: np.ndarray,
    rhs: np.ndarray,
    remainder: float,
    two_sided: bool = False,
) -> InequalityCheck:
    """lhs <= rhs + remainder from the per-replication values of both sides
    on the same panels; the margin and its se come from their differences.
    A remainder that is not finite makes no margin: it raises
    ``NonFiniteGaugeError`` naming the margin."""
    if not math.isfinite(remainder):
        raise NonFiniteGaugeError(f"the remainder of the {name} margin is {remainder!r}; "
                                  f"the gauge overflows at this truncation level")
    left, right, diff = map(_estimate_from_values, (lhs, rhs, lhs - rhs))
    margin = diff.mean - remainder
    return InequalityCheck(
        name=name, lhs=left.mean, lhs_se=left.se, rhs=right.mean, rhs_se=right.se,
        remainder=remainder, margin=margin, se=diff.se,
        verdict=verdict_for(margin, diff.se, two_sided), two_sided=two_sided,
    )


@dataclass
class VerificationReport:
    check: str
    lhs: Optional[ExpectationEstimate]
    mid: Optional[ExpectationEstimate]
    rhs: Optional[ExpectationEstimate]
    remainders: dict
    rho: Optional[RhoEstimate]
    margins: list
    params: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return any(m.verdict == "violated" for m in self.margins)

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}

    def csv_rows(self) -> list:
        """One summary row per inequality, fixed column set."""
        rows = []
        for m in self.margins:
            rows.append({
                "check": f"{self.check}.{m.name}",
                "lhs": m.lhs, "lhs_se": m.lhs_se,
                "rhs": m.rhs, "rhs_se": m.rhs_se,
                "remainder": m.remainder, "margin": m.margin,
                "verdict": m.verdict,
                "seed": self.params.get("seed", ""),
                "n": self.params.get("n", ""), "p": self.params.get("p", ""),
                "b": self.params.get("b", ""), "q": self.params.get("q", ""),
                "r": self.params.get("r", ""), "U": self.params.get("U", ""),
            })
        return rows


CSV_COLUMNS = ["check", "lhs", "lhs_se", "rhs", "rhs_se", "remainder",
               "margin", "verdict", "seed", "n", "p", "b", "q", "r", "U"]


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def _estimate_from_values(values: np.ndarray) -> ExpectationEstimate:
    reps = len(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return ExpectationEstimate(mean=mean, se=se, reps=reps, mode="mc")


def _gauge_values(psi: PsiLike, gain: float, stats: np.ndarray) -> np.ndarray:
    """psi(gain * stats), one value per replication; an overflow raises
    ``NonFiniteGaugeError`` naming the first replication it hit."""
    values = np.asarray(psi_eval(psi, gain * stats))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteGaugeError(f"gauge value overflowed at replication {bad[0]}")
    return values


def _check_mid(mid: StreamStatistics) -> None:
    """Reject a mid pass without the multiplier statistic or 1000
    replications, or one drawn for another purpose or with copies."""
    if mid.mult_max is None:
        raise ValueError("the mid pass has no multiplier statistic (mult_max); "
                         "draw it with a block scheme and a multiplier law")
    if mid.reps < 1000:
        raise ValueError(f"need reps >= 1000, got {mid.reps}")
    mid.require("mid", mid.spec, mid.seed, PURPOSE_MID)


def tail_levels(U: float) -> tuple:
    """The levels U * geomspace(0.25, 2, 8) at which the tail stream counts
    per-coordinate exceedances for the sub-exponential tail fit."""
    return tuple(U * np.geomspace(0.25, 2.0, 8))


def mc_tail_probability(tail: StreamStatistics, U: float) -> dict:
    """MC exceedance probability of the max-abs mean of the tail pass with a
    one-sided 97.5% Clopper-Pearson upper confidence bound."""
    reps = tail.reps
    hits = int((tail.max_abs_mean >= U).sum())
    if hits == reps:
        upper = 1.0
    else:
        upper = float(beta.ppf(0.975, hits + 1, reps - hits))
    hat = hits / reps
    se = math.sqrt(hat * (1.0 - hat) / reps)
    return {"hits": hits, "reps": reps, "estimate": hat, "upper": upper, "se": se}


def mc_coordinate_mean_moment(tail: StreamStatistics, q: float) -> dict:
    """MC estimate of max_i E |column mean_i|^q with the argmax coordinate's
    standard error attached, from the tail pass's ``PowerSums(q)``."""
    acc, acc2 = tail.read(PowerSums(q))
    reps = tail.reps
    means = acc / reps
    i = int(np.argmax(means))
    var = max(acc2[i] / reps - means[i] ** 2, 0.0)
    return {
        "value": float(means[i]),
        "se": math.sqrt(var / reps),
        "coordinate": i,
        "reps": reps,
    }


def mc_per_coordinate_tails(tail: StreamStatistics, levels) -> np.ndarray:
    """Worst per-coordinate exceedance probability at each level, from the
    tail pass's ``Exceedances`` at those levels."""
    counts = tail.read(Exceedances(tuple(map(float, levels))))
    return counts.max(axis=1) / tail.reps


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactChain:
    """Exact expectations of the bounded chain on a discrete configuration.

    The desymmetrization side of the bounded chain is the plain expectation,
    so ``rhs`` always equals ``lhs``; it is returned separately to mirror the
    report layout. The Monte Carlo chain has the same identity: its rhs reads
    the lhs's panels, so at gain 1 the two are equal exactly, not only in law.
    """

    lhs: float
    mid: float
    rhs: float


def _expect_psi_max(psi: PsiLike, gain: float, stats: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """E psi(gain * max of p iid column draws), one per row of ``stats``.

    Each row holds one column's C equiprobable outcomes, and ``weights[j-1]``
    is (j/C)**p - ((j-1)/C)**p, the chance that the max is the j-th smallest
    of them. The weights of tied values sum to the jump of F**p at the tie.
    """
    return psi_eval(psi, gain * np.sort(stats, axis=-1)) @ weights


def exact_enumeration(
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    psi: PsiLike,
    scale: float = 1.0,
) -> ExactChain:
    """Exact expectations from one column's law raised to the power p.

    Supports the random-sign kind and ``linear_process`` with Rademacher
    innovations, both with sign multipliers. Their columns are iid, and so
    are the per-column multiplier statistics for a fixed multiplier vector,
    so the max over p columns has law F**p for the law F of one column. One
    column has 2**n equiprobable outcomes (2**(n + lags) for the linear
    process), and the per-column outcome count times the 2**count
    multiplier vectors must not exceed 2**24; p does not enter it.
    """
    rademacher_filter = spec.kind == "linear_process" and spec.innovation == "rademacher"
    if spec.kind != "bounded_rademacher" and not rademacher_filter:
        raise ValueError("exact enumeration supports only the random-sign panel kind "
                         "and linear_process with rademacher innovations")
    if mult.kind != "rademacher":
        raise ValueError("exact enumeration supports only sign multipliers")
    if scheme.n != spec.n:
        raise ValueError("scheme and spec disagree on n")
    bits = spec.n + len(spec.coeffs) - 1 if rademacher_filter else spec.n
    if 2**bits * 2**scheme.count > _ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"per-column outcome count 2**{bits} * 2**{scheme.count} multiplier "
            f"vectors exceeds the 2**24 enumeration budget (p does not enter it)"
        )
    outcomes = 2**bits
    plain = np.empty(outcomes)
    sums = np.empty((outcomes, scheme.count, 1))
    step = max(1, _ENUMERATION_CHUNK // bits)
    for start in range(0, outcomes, step):
        # Outcome k reads its signs from the bits of k: the panel signs, or
        # the innovations that the linear filter turns into the column.
        stop = min(start + step, outcomes)
        idx = np.arange(start, stop)[:, None]
        column = (2.0 * ((idx >> np.arange(bits)) & 1) - 1.0)[..., None]
        if rademacher_filter:
            column = _linear_filter(column, spec, np.zeros((stop - start, spec.n, 1)))
        plain[start:stop] = batch_max_abs_mean(column)
        sums[start:stop] = batch_block_sums(column, scheme)
    # weights[j-1] = (j/C)**p - ((j-1)/C)**p, written as
    # (j/C)**p * (1 - (1 - 1/j)**p) to keep full relative precision at large p.
    j = np.arange(1, outcomes + 1)
    with np.errstate(divide="ignore"):
        weights = (j / outcomes) ** spec.p * -np.expm1(spec.p * np.log1p(-1.0 / j))
    gain = scale * (spec.scale if spec.kind == "bounded_rademacher" else 1.0)
    lhs = float(_expect_psi_max(psi, gain, plain, weights))
    n_eps = 2**scheme.count
    eps_bits = (np.arange(n_eps)[:, None, None] >> np.arange(scheme.count)) & 1
    eps_all = 2.0 * eps_bits - 1.0  # (n_eps, 1, count): broadcasts over outcomes
    chunk = max(1, _ENUMERATION_CHUNK // outcomes)
    mid_acc = 0.0
    for start in range(0, n_eps, chunk):
        mstats = batch_multiplier_max(sums, eps_all[start : start + chunk], spec.n)
        mid_acc += float(_expect_psi_max(psi, gain, mstats, weights).sum())
    return ExactChain(lhs=lhs, mid=mid_acc / n_eps, rhs=lhs)


# ---------------------------------------------------------------------------
# Inequality chain verifiers
# ---------------------------------------------------------------------------


def _chain(mid: StreamStatistics, psi: PsiLike, gain: float, remainder: float):
    """The margins lhs <= mid + R and mid <= rhs + 2R with their three sides.

    lhs is E psi(max-abs mean); mid and rhs are (1/gain) E psi(gain .) of the
    multiplier and the plain statistic. Gain 1 is the bounded chain, gain 2
    the truncated one; the 1/gain scaling is exact for both. All three sides
    read the one pass of the mid stream, the plain and the multiplier
    statistic of each panel, so at gain 1 rhs is lhs exactly and each margin
    takes its se from the per-replication differences of its two sides.
    """
    lhs = _gauge_values(psi, 1.0, mid.max_abs_mean)
    middle = _gauge_values(psi, gain, mid.mult_max) / gain
    rhs = _gauge_values(psi, gain, mid.max_abs_mean) / gain
    margins = [
        _inequality("symmetrization", lhs, middle, remainder),
        _inequality("desymmetrization", middle, rhs, 2.0 * remainder),
    ]
    return (*map(_estimate_from_values, (lhs, middle, rhs)), margins)


def require_support(spec: DgpSpec, U: float) -> None:
    """Raise a ``ValueError`` unless the panel law of ``spec`` is supported
    inside [-U, U]^p, as prop1's bounded chain needs."""
    bound = spec.support_bound
    if bound is None:
        raise ValueError(
            f"bounded chain requires a bounded generator kind, got {spec.kind!r}"
        )
    if bound > U + 1e-12:
        raise ValueError(f"panel support bound {bound} exceeds truncation level {U}")


def verify_prop1(
    psi: PsiLike,
    U: float,
    rho: RhoEstimate,
    *,
    mid: StreamStatistics,
) -> VerificationReport:
    """Bounded chain: lhs <= mid + R and mid <= lhs + 2R with estimated rhos,
    from the statistics ``mid`` of the mid stream, whose spec, seed and block
    scheme the report reads.

    The panel law must be supported inside [-U, U]^p (``require_support``).
    """
    _check_mid(mid)
    spec = mid.spec
    require_support(spec, U)
    rho_sum = rho.rho + rho.rho_star
    rn = remainder_Rn(psi, U, rho_sum)
    lhs, middle, rhs, margins = _chain(mid, psi, 1.0, rn)
    return VerificationReport(
        check="prop1", lhs=lhs, mid=middle, rhs=rhs,
        remainders={"R_n": rn, "rho_sum": rho_sum},
        rho=rho, margins=margins,
        params={"n": spec.n, "p": spec.p, "b": mid.scheme.b, "U": U, "seed": mid.seed,
                "reps": mid.reps, **_psi_params(psi)},
    )


def verify_prop2(
    psi: PsiLike,
    U: float,
    r: float,
    rho: RhoEstimate,
    *,
    mid: StreamStatistics,
    tail: StreamStatistics,
    marginal: StreamStatistics,
) -> VerificationReport:
    """Truncated chain with the (1/2) psi(2 .) scaling and empirical tail.

    The truncation remainder uses the Clopper-Pearson 97.5% upper bound on
    the exceedance probability, so the reported value is conservative, and a
    Monte Carlo gauge moment norm (whose finiteness is the moment
    diagnostic) of the marginal rows ``marginal``. The exceedance count and
    the split diagnostic read the tail pass ``tail``, which must have folded
    ``MaxBelow(U)``. The spec, seed and block scheme are those of ``mid``, and
    the tail pass and the marginal rows must be streams of that spec at that
    seed.
    """
    _check_mid(mid)
    spec = mid.spec
    tail.require("tail", spec, mid.seed, PURPOSE_TAIL)
    marginal.require("marginal", marginal_spec(spec), mid.seed, PURPOSE_NORM)
    below = tail.read(MaxBelow(U))
    rho_sum = rho.rho + rho.rho_star
    norm = psi_moment_norm(psi, marginal, r)
    tail_prob = mc_tail_probability(tail, U)
    r1 = remainder_R1(psi, U, rho_sum)
    r2 = remainder_R2(r, tail_prob["upper"], norm.value)
    total = r1 + r2
    lhs, middle, rhs, margins = _chain(mid, psi, 2.0, total)
    m = tail.max_abs_mean
    e1 = _estimate_from_values(0.5 * _gauge_values(psi, 2.0, below))
    e2 = _estimate_from_values(0.5 * _gauge_values(psi, 2.0, m) * (m > U))
    return VerificationReport(
        check="prop2", lhs=lhs, mid=middle, rhs=rhs,
        remainders={"R1": r1, "R2": r2, "total": total, "rho_sum": rho_sum,
                    "tail_prob_upper": tail_prob["upper"], "psi_norm": norm.value},
        rho=rho, margins=margins,
        params={"n": spec.n, "p": spec.p, "b": mid.scheme.b, "U": U, "r": r,
                "seed": mid.seed, "reps": mid.reps, **_psi_params(psi)},
        diagnostics={
            "E_n1": asdict(e1),
            "E_n2": asdict(e2),
            "split_margin": lhs.mean - e1.mean - e2.mean,
            "tail": tail_prob,
            "psi_norm_se": norm.se,
        },
    )


# The independence reduction's block length and multiplier law: singleton
# blocks of sign multipliers. ``cli.parse_config`` admits no other.
INDEPENDENCE_BLOCK = 1
INDEPENDENCE_MULTIPLIER = MultiplierSpec("rademacher")


def verify_independence_reduction(
    spec: DgpSpec, psi: PsiLike, reps: int, seed: int
) -> VerificationReport:
    """Singleton blocks, sign multipliers, independent-copy differences.

    Under independence the multiplied and plain difference statistics have
    the same law, so the paired two-sided margin should sit within noise of
    zero and the reduction carries no remainder.
    """
    if not spec.is_iid:
        raise ValueError(
            f"independence reduction requires an iid generator kind, got {spec.kind!r}"
        )
    if reps < 1000:
        raise ValueError(f"need reps >= 1000, got {reps}")
    stats = stream_statistics(spec, reps, seed, PURPOSE_LHS,
                              make_blocks(spec.n, INDEPENDENCE_BLOCK), INDEPENDENCE_MULTIPLIER,
                              copies=True)
    mult_vals = _gauge_values(psi, 1.0, stats.mult_max)
    plain_vals = _gauge_values(psi, 1.0, stats.max_abs_mean)
    check = _inequality("two-sided-equality", mult_vals, plain_vals, 0.0, two_sided=True)
    return VerificationReport(
        check="independence-reduction", lhs=_estimate_from_values(mult_vals), mid=None,
        rhs=_estimate_from_values(plain_vals),
        remainders={"R_breve": 0.0}, rho=None, margins=[check],
        params={"n": spec.n, "p": spec.p, "b": stats.scheme.b, "seed": seed, "reps": reps,
                **_psi_params(psi)},
        diagnostics={"paired_se": check.se},
    )


def hoeffding_factor(q: float, c: float, p: int, n: int) -> float:
    """Exact conditional-multiplier factor 2**(q/2) c**q (ln(2p) / n)**(q/2)."""
    return 2.0 ** (q / 2.0) * c**q * (math.log(2.0 * p) / n) ** (q / 2.0)


def theorem1_bound(
    q: float,
    r: float,
    U: float,
    rho: RhoEstimate,
    *,
    mid: StreamStatistics,
    marginal: StreamStatistics,
    tail: Optional[StreamStatistics] = None,
    tail_params: Optional[TailParams] = None,
) -> VerificationReport:
    """Maximal moment bound with the exact Hoeffding factor.

    The blocking remainder R1 is computed both exactly, 2**(q-2) rho_sum U**q
    (reported under its historical key ``R1_quadrature``), and in the
    n-scaled closed-form variant, and the bound uses the larger of the two.
    The conditional Hoeffding step is audited separately as a paired margin.
    The moment-bound margin compares the lhs with the Hoeffding factor times
    the quadratic term, with remainder (R1_used + R2) / 2, so its slack is
    (lhs - rhs) / remainder as for prop1 and prop2.
    The lhs, the quadratic block term and the Hoeffding step read ``mid``,
    the pass of the mid stream that prop1 and prop2 read too, and both
    margins take their se from the paired per-replication differences of
    their sides. The spec, seed, block scheme and multiplier law, and so the
    Hoeffding factor, are those of ``mid``. The moment norm reads the
    marginal rows ``marginal``. The tail bound is lq when given the tail pass
    ``tail``, whose ``PowerSums(q)`` it reads, and subexp when given
    ``tail_params``; exactly one of them must be given. The tail pass and
    the marginal rows must be streams of the spec of ``mid`` at its seed.
    """
    if (tail is None) == (tail_params is None):
        raise ValueError(f"the tail bound reads a tail pass that folded {PowerSums(q)} (lq) "
                         f"or tail_params (subexp); got {'neither' if tail is None else 'both'}")
    _check_mid(mid)
    spec = mid.spec
    if tail is not None:
        tail.require("tail", spec, mid.seed, PURPOSE_TAIL)
    marginal.require("marginal", marginal_spec(spec), mid.seed, PURPOSE_NORM)
    psi_q = PsiSpec("power", q=q)
    rho_sum = rho.rho + rho.rho_star
    factor = hoeffding_factor(q, mid.mult.bound, spec.p, spec.n)

    lhs_vals = _gauge_values(psi_q, 1.0, mid.max_abs_mean)
    mult_vals = _gauge_values(psi_q, 1.0, mid.mult_max)
    quad_vals = mid.quad ** (q / 2.0)
    quad_est = _estimate_from_values(quad_vals)

    norm = psi_moment_norm(psi_q, marginal, r)
    m_hat_q = norm.value / 2.0**q  # estimate of max_t || max_i |x[t,i]| ||_qr ** q
    subexp_warning = False
    if tail is not None:
        moment = mc_coordinate_mean_moment(tail, q)
        tail_bound = concentration_lq(spec.p, U, q, moment["value"])
        tail_info = {"mode": "lq", "q": q, "max_mean_moment": moment["value"],
                     "moment_se": moment["se"]}
    else:
        sub = concentration_subexp(spec.p, spec.n, U, tail_params)
        tail_bound = sub.value
        subexp_warning = sub.warning
        tail_info = {"mode": "subexp", "second_term": sub.second_term,
                     "warning": sub.warning, "params": asdict(tail_params)}
    r2 = remainder_R2(r, tail_bound, 2.0**q * m_hat_q)
    r1_quadrature = remainder_R1(psi_q, U, rho_sum)
    r1_nscaled = power_R1_nscaled(q, spec.n, U, rho_sum)
    r1_used = max(r1_quadrature, r1_nscaled)

    rhs_vals = factor * quad_vals
    main = _inequality("moment-bound", lhs_vals, rhs_vals, 0.5 * (r1_used + r2))
    hoeff = _inequality("hoeffding-step", mult_vals, rhs_vals, 0.0)
    return VerificationReport(
        check="theorem1", lhs=_estimate_from_values(lhs_vals), mid=None,
        rhs=_estimate_from_values(rhs_vals),
        remainders={"R1_quadrature": r1_quadrature, "R1_nscaled": r1_nscaled,
                    "R1_used": r1_used, "R2": r2, "rho_sum": rho_sum,
                    "hoeffding_factor": factor, "quad_term": quad_est.mean,
                    "M_hat_q": m_hat_q, "tail_bound": tail_bound},
        rho=rho, margins=[main, hoeff],
        params={"n": spec.n, "p": spec.p, "b": mid.scheme.b, "q": q, "r": r,
                "U": U, "seed": mid.seed, "reps": mid.reps},
        diagnostics={"tail": tail_info, "subexp_warning": subexp_warning,
                     "quad_term_se": quad_est.se, "psi_norm_se": norm.se},
    )


def _psi_params(psi: PsiLike) -> dict:
    if isinstance(psi, PsiSpec) and psi.kind == "power":
        return {"q": psi.q}
    return {}
