"""Monte Carlo and exact-enumeration verification of the inequality chains.

The bounded chain compares E psi(max-abs column mean) against the same gauge
of the block-multiplier statistic plus a blocking remainder, both ways. The
unbounded chain adds the (1/2) psi(2 .) scaling and a truncation remainder.
The moment-bound check tests the maximal q-th moment against the
Hoeffding-factor bound on the quadratic block term plus remainders.

Every Monte Carlo estimator draws a fresh panel per replication (fresh
multipliers and fresh independent copies where the mode needs them), and all
expectations are unconditional. Inequality verdicts use a three-band rule:
``holds`` when the margin is nonpositive, ``holds-within-noise`` within three
propagated standard errors, ``violated`` beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.stats import beta

from .blocking import (
    BlockScheme,
    MultiplierSpec,
    batch_block_sums,
    batch_max_abs_mean,
    batch_multiplier_max,
    batch_multipliers,
    make_blocks,
)
from .gaussian import RhoEstimate
from .processes import DgpSpec, generate_panels
from .psi import PsiLike, PsiSpec, psi_deriv, psi_eval, psi_moment_norm
from .remainders import (
    TailParams,
    concentration_lq,
    concentration_subexp,
    power_R1_nscaled,
    remainder_R1,
    remainder_R2,
    remainder_Rn,
)
from .seeding import (
    PURPOSE_DEFAULT,
    PURPOSE_HOEFFDING,
    PURPOSE_LHS,
    PURPOSE_MID,
    PURPOSE_MOMENT,
    PURPOSE_QUAD,
    PURPOSE_RHS,
    PURPOSE_SPLIT,
    PURPOSE_TAIL,
    STREAM_COPY,
    STREAM_PANEL,
)

STATISTIC_MODES = ("plain", "multiplier", "multiplier-indep-copy", "truncated-indicator")

_ENUMERATION_BUDGET = 2**24


class EnumerationBudgetError(ValueError):
    pass


class NonFiniteGaugeError(RuntimeError):
    """A gauge value overflowed; the message names the replication."""


@dataclass(frozen=True)
class ExpectationEstimate:
    mean: float
    se: float
    reps: int
    mode: str = "mc"

    def scaled(self, factor: float) -> "ExpectationEstimate":
        return ExpectationEstimate(factor * self.mean, abs(factor) * self.se,
                                   self.reps, self.mode)

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "se": self.se, "reps": self.reps, "mode": self.mode}


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

    def to_json_dict(self) -> dict:
        return {
            "name": self.name, "lhs": self.lhs, "lhs_se": self.lhs_se,
            "rhs": self.rhs, "rhs_se": self.rhs_se, "remainder": self.remainder,
            "margin": self.margin, "se": self.se, "verdict": self.verdict,
            "two_sided": self.two_sided,
        }


def verdict_for(margin: float, se: float, two_sided: bool = False) -> str:
    stat = abs(margin) if two_sided else margin
    if stat <= 0:
        return "holds"
    if stat <= 3.0 * se:
        return "holds-within-noise"
    return "violated"


def _inequality(
    name: str,
    lhs: ExpectationEstimate,
    rhs: ExpectationEstimate,
    remainder: float,
    two_sided: bool = False,
    paired: Optional[np.ndarray] = None,
) -> InequalityCheck:
    """lhs <= rhs + remainder. With ``paired``, the per-replication lhs - rhs
    on shared panels, the margin and its se come from those differences."""
    if paired is None:
        margin = lhs.mean - rhs.mean - remainder
        se = math.hypot(lhs.se, rhs.se)
    else:
        diff = _estimate_from_values(paired)
        margin, se = diff.mean - remainder, diff.se
    return InequalityCheck(
        name=name, lhs=lhs.mean, lhs_se=lhs.se, rhs=rhs.mean, rhs_se=rhs.se,
        remainder=remainder, margin=margin, se=se,
        verdict=verdict_for(margin, se, two_sided), two_sided=two_sided,
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
        return {
            "schema_version": 1,
            "check": self.check,
            "params": self.params,
            "lhs": self.lhs.to_json_dict() if self.lhs else None,
            "mid": self.mid.to_json_dict() if self.mid else None,
            "rhs": self.rhs.to_json_dict() if self.rhs else None,
            "remainders": self.remainders,
            "rho": self.rho.to_json_dict() if self.rho else None,
            "margins": [m.to_json_dict() for m in self.margins],
            "diagnostics": self.diagnostics,
        }

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


def _check_finite(values: np.ndarray, start: int, mode: str) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteGaugeError(
            f"gauge value overflowed in {mode!r} mode at replication {start + bad[0]}"
        )


def mc_expect_psi_max(
    mode: str,
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    psi: PsiLike,
    scale: float,
    reps: int,
    seed: int,
    purpose: int = PURPOSE_DEFAULT,
    trunc_level: Optional[float] = None,
) -> ExpectationEstimate:
    """Unconditional Monte Carlo estimate of E psi(scale * statistic).

    Modes: ``plain`` uses the max-abs column mean; ``multiplier`` the
    block-multiplier statistic with fresh multipliers per replication;
    ``multiplier-indep-copy`` applies the multiplier statistic to the panel
    minus a fresh independent copy; ``truncated-indicator`` computes
    E[psi(2 max-abs-mean) 1{max-abs-mean > trunc_level}] (scale is unused)
    for the tail-split diagnostic.
    """
    if mode not in STATISTIC_MODES:
        raise ValueError(f"unknown statistic mode {mode!r}")
    if reps < 1000:
        raise ValueError(f"need reps >= 1000, got {reps}")
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    if mode == "truncated-indicator" and trunc_level is None:
        raise ValueError("truncated-indicator mode needs trunc_level")
    values = np.empty(reps)
    panel_iter = generate_panels(spec, reps, seed, STREAM_PANEL, purpose)
    copy_iter = (
        generate_panels(spec, reps, seed, STREAM_COPY, purpose)
        if mode == "multiplier-indep-copy" else None
    )
    for start, panels in panel_iter:
        c = len(panels)
        if mode == "multiplier-indep-copy":
            _, copies = next(copy_iter)
            panels = panels - copies
        if mode in ("multiplier", "multiplier-indep-copy"):
            eps = batch_multipliers(mult, scheme.count, seed, purpose, start, start + c)
            stats = batch_multiplier_max(batch_block_sums(panels, scheme), eps, scheme.n)
            vals = np.asarray(psi_eval(psi, scale * stats))
        elif mode == "plain":
            stats = batch_max_abs_mean(panels)
            vals = np.asarray(psi_eval(psi, scale * stats))
        else:
            stats = batch_max_abs_mean(panels)
            vals = np.asarray(psi_eval(psi, 2.0 * stats)) * (stats > trunc_level)
        _check_finite(vals, start, mode)
        values[start : start + c] = vals
    return _estimate_from_values(values)


def mc_tail_probability(
    spec: DgpSpec, U: float, reps: int, seed: int, purpose: int = PURPOSE_TAIL
) -> dict:
    """MC exceedance probability of the max-abs mean with a one-sided
    97.5% Clopper-Pearson upper confidence bound."""
    hits = 0
    for _, panels in generate_panels(spec, reps, seed, STREAM_PANEL, purpose):
        hits += int((batch_max_abs_mean(panels) >= U).sum())
    if hits == reps:
        upper = 1.0
    else:
        upper = float(beta.ppf(0.975, hits + 1, reps - hits))
    hat = hits / reps
    se = math.sqrt(hat * (1.0 - hat) / reps)
    return {"hits": hits, "reps": reps, "estimate": hat, "upper": upper, "se": se}


def mc_coordinate_mean_moment(
    spec: DgpSpec, q: float, reps: int, seed: int, purpose: int = PURPOSE_MOMENT
) -> dict:
    """MC estimate of max_i E |column mean_i|^q with the argmax coordinate's
    standard error attached."""
    acc = np.zeros(spec.p)
    acc2 = np.zeros(spec.p)
    for _, panels in generate_panels(spec, reps, seed, STREAM_PANEL, purpose):
        powered = np.abs(panels.mean(axis=1)) ** q
        acc += powered.sum(axis=0)
        acc2 += (powered**2).sum(axis=0)
    means = acc / reps
    i = int(np.argmax(means))
    var = max(acc2[i] / reps - means[i] ** 2, 0.0)
    return {
        "value": float(means[i]),
        "se": math.sqrt(var / reps),
        "coordinate": i,
        "reps": reps,
    }


def mc_per_coordinate_tails(
    spec: DgpSpec, levels: np.ndarray, reps: int, seed: int,
    purpose: int = PURPOSE_TAIL,
) -> np.ndarray:
    """Worst per-coordinate exceedance probability at each level."""
    levels = np.asarray(levels, dtype=float)
    counts = np.zeros((len(levels), spec.p))
    for _, panels in generate_panels(spec, reps, seed, STREAM_PANEL, purpose):
        absmeans = np.abs(panels.mean(axis=1))
        for j, u in enumerate(levels):
            counts[j] += (absmeans >= u).sum(axis=0)
    return counts.max(axis=1) / reps


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactChain:
    """Exact expectations of the bounded chain on a discrete configuration.

    The desymmetrization side of the bounded chain is the plain expectation,
    so ``rhs`` always equals ``lhs``; it is returned separately to mirror the
    report layout.
    """

    lhs: float
    mid: float
    rhs: float


def exact_enumeration(
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    psi: PsiLike,
    scale: float = 1.0,
) -> ExactChain:
    """Brute-force expectations over every sign panel and multiplier vector.

    Requires the coordinate-wise random-sign generator and sign multipliers
    so outcomes are equiprobable; the full outcome count
    2**(n p) * 2**count must not exceed 2**24.
    """
    if spec.kind != "bounded_rademacher":
        raise ValueError("exact enumeration supports only the random-sign panel kind")
    if mult.kind != "rademacher":
        raise ValueError("exact enumeration supports only sign multipliers")
    if scheme.n != spec.n:
        raise ValueError("scheme and spec disagree on n")
    cells = spec.n * spec.p
    n_panels = 2**cells
    n_eps = 2**scheme.count
    if n_panels * n_eps > _ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"outcome count 2**{cells} * 2**{scheme.count} exceeds the "
            f"2**24 enumeration budget"
        )
    eps_bits = (np.arange(n_eps)[:, None, None] >> np.arange(scheme.count)) & 1
    eps_all = 2.0 * eps_bits - 1.0  # (n_eps, 1, count): broadcasts over panels
    chunk = max(1, 2**18 // max(1, n_eps * spec.p))
    lhs_acc = 0.0
    mid_acc = 0.0
    for startfrom in range(0, n_panels, chunk):
        idx = np.arange(startfrom, min(startfrom + chunk, n_panels))
        bits = (idx[:, None] >> np.arange(cells)) & 1
        panels = (2.0 * bits - 1.0).reshape(-1, spec.n, spec.p) * spec.scale
        lhs_acc += float(np.sum(psi_eval(psi, scale * batch_max_abs_mean(panels))))
        mstats = batch_multiplier_max(batch_block_sums(panels, scheme), eps_all, spec.n)
        mid_acc += float(np.sum(psi_eval(psi, scale * mstats)))
    lhs = lhs_acc / n_panels
    mid = mid_acc / (n_panels * n_eps)
    return ExactChain(lhs=lhs, mid=mid, rhs=lhs)


# ---------------------------------------------------------------------------
# Inequality chain verifiers
# ---------------------------------------------------------------------------


def verify_prop1(
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    psi: PsiLike,
    U: float,
    reps: int,
    rho: RhoEstimate,
    seed: int,
    remainder_override: Optional[float] = None,
) -> VerificationReport:
    """Bounded chain: lhs <= mid + R and mid <= lhs + 2R with estimated rhos.

    The panel law must be supported inside [-U, U]^p. ``remainder_override``
    substitutes a fixed remainder (testing hook for the exit-code contract).
    """
    bound = spec.support_bound
    if bound is None:
        raise ValueError(
            f"bounded chain requires a bounded generator kind, got {spec.kind!r}"
        )
    if bound > U + 1e-12:
        raise ValueError(f"panel support bound {bound} exceeds truncation level {U}")
    rho_sum = rho.rho + rho.rho_star
    rn = remainder_Rn(psi, spec.n, U, rho_sum) if remainder_override is None \
        else remainder_override
    lhs = mc_expect_psi_max("plain", spec, scheme, mult, psi, 1.0, reps, seed, PURPOSE_LHS)
    mid = mc_expect_psi_max("multiplier", spec, scheme, mult, psi, 1.0, reps, seed, PURPOSE_MID)
    rhs = mc_expect_psi_max("plain", spec, scheme, mult, psi, 1.0, reps, seed, PURPOSE_RHS)
    margins = [
        _inequality("symmetrization", lhs, mid, rn),
        _inequality("desymmetrization", mid, rhs, 2.0 * rn),
    ]
    return VerificationReport(
        check="prop1", lhs=lhs, mid=mid, rhs=rhs,
        remainders={"R_n": rn, "rho_sum": rho_sum},
        rho=rho, margins=margins,
        params={"n": spec.n, "p": spec.p, "b": scheme.b, "U": U, "seed": seed,
                "reps": reps, **_psi_params(psi)},
    )


def verify_prop2(
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    psi: PsiLike,
    U: float,
    r: float,
    reps: int,
    rho: RhoEstimate,
    seed: int,
    remainder_override: Optional[float] = None,
) -> VerificationReport:
    """Truncated chain with the (1/2) psi(2 .) scaling and empirical tail.

    The truncation remainder uses the Clopper-Pearson 97.5% upper bound on
    the exceedance probability, so the reported value is conservative, and a
    Monte Carlo gauge moment norm (whose finiteness is the moment
    diagnostic).
    """
    rho_sum = rho.rho + rho.rho_star
    norm = psi_moment_norm(psi, spec, r, max(reps, 1000), seed)
    tail = mc_tail_probability(spec, U, reps, seed)
    r1 = remainder_R1(psi, spec.n, U, rho_sum)
    r2 = remainder_R2(r, tail["upper"], norm.value)
    total = r1 + r2 if remainder_override is None else remainder_override
    lhs = mc_expect_psi_max("plain", spec, scheme, mult, psi, 1.0, reps, seed, PURPOSE_LHS)
    mid = mc_expect_psi_max("multiplier", spec, scheme, mult, psi, 2.0, reps, seed,
                            PURPOSE_MID).scaled(0.5)
    rhs = mc_expect_psi_max("plain", spec, scheme, mult, psi, 2.0, reps, seed,
                            PURPOSE_RHS).scaled(0.5)
    e1_vals = np.empty(reps)
    e2_vals = np.empty(reps)
    for start, panels in generate_panels(spec, reps, seed, STREAM_PANEL, PURPOSE_SPLIT):
        absmeans = np.abs(panels.mean(axis=1))
        m = absmeans.max(axis=1)
        below = np.where(absmeans <= U, absmeans, 0.0).max(axis=1)
        c = len(panels)
        e1_vals[start : start + c] = 0.5 * np.asarray(psi_eval(psi, 2.0 * below))
        e2_vals[start : start + c] = 0.5 * np.asarray(psi_eval(psi, 2.0 * m)) * (m > U)
    e1 = _estimate_from_values(e1_vals)
    e2 = _estimate_from_values(e2_vals)
    margins = [
        _inequality("symmetrization", lhs, mid, total),
        _inequality("desymmetrization", mid, rhs, 2.0 * total),
    ]
    return VerificationReport(
        check="prop2", lhs=lhs, mid=mid, rhs=rhs,
        remainders={"R1": r1, "R2": r2, "total": total, "rho_sum": rho_sum,
                    "tail_prob_upper": tail["upper"], "psi_norm": norm.value},
        rho=rho, margins=margins,
        params={"n": spec.n, "p": spec.p, "b": scheme.b, "U": U, "r": r,
                "seed": seed, "reps": reps, **_psi_params(psi)},
        diagnostics={
            "E_n1": e1.to_json_dict(),
            "E_n2": e2.to_json_dict(),
            "split_margin": lhs.mean - e1.mean - e2.mean,
            "tail": tail,
            "psi_norm_se": norm.se,
        },
    )


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
    scheme = make_blocks(spec.n, 1)
    mult = MultiplierSpec("rademacher")
    mult_vals = np.empty(reps)
    plain_vals = np.empty(reps)
    panel_iter = generate_panels(spec, reps, seed, STREAM_PANEL, PURPOSE_LHS)
    copy_iter = generate_panels(spec, reps, seed, STREAM_COPY, PURPOSE_LHS)
    for (start, panels), (_, copies) in zip(panel_iter, copy_iter):
        c = len(panels)
        diff = panels - copies
        eps = batch_multipliers(mult, scheme.count, seed, PURPOSE_LHS, start, start + c)
        mstats = batch_multiplier_max(batch_block_sums(diff, scheme), eps, scheme.n)
        mult_vals[start : start + c] = np.asarray(psi_eval(psi, mstats))
        plain_vals[start : start + c] = np.asarray(psi_eval(psi, batch_max_abs_mean(diff)))
    lhs = _estimate_from_values(mult_vals)
    rhs = _estimate_from_values(plain_vals)
    check = _inequality("two-sided-equality", lhs, rhs, 0.0, two_sided=True,
                        paired=mult_vals - plain_vals)
    return VerificationReport(
        check="independence-reduction", lhs=lhs, mid=None, rhs=rhs,
        remainders={"R_breve": 0.0}, rho=None, margins=[check],
        params={"n": spec.n, "p": spec.p, "b": 1, "seed": seed, "reps": reps,
                **_psi_params(psi)},
        diagnostics={"paired_se": check.se},
    )


def hoeffding_factor(q: float, c: float, p: int, n: int) -> float:
    """Exact conditional-multiplier factor 2**(q/2) c**q (ln(2p) / n)**(q/2)."""
    return 2.0 ** (q / 2.0) * c**q * (math.log(2.0 * p) / n) ** (q / 2.0)


def theorem1_bound(
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    q: float,
    r: float,
    U: float,
    reps: int,
    rho: RhoEstimate,
    tail_mode: str,
    seed: int,
    tail_params: Optional[TailParams] = None,
) -> VerificationReport:
    """Maximal moment bound with the exact Hoeffding factor.

    The blocking remainder is computed both by quadrature and in the
    n-scaled closed-form variant; the verdict uses the larger. The
    conditional Hoeffding step is audited separately as a paired margin on
    shared panels.
    """
    if tail_mode not in ("lq", "subexp"):
        raise ValueError(f"unknown tail mode {tail_mode!r}")
    if tail_mode == "subexp" and tail_params is None:
        raise ValueError("subexp mode needs tail_params")
    psi_q = PsiSpec("power", q=q)
    rho_sum = rho.rho + rho.rho_star
    factor = hoeffding_factor(q, mult.bound, spec.p, spec.n)

    lhs = mc_expect_psi_max("plain", spec, scheme, mult, psi_q, 1.0, reps, seed, PURPOSE_LHS)

    quad_vals = np.empty(reps)
    hoeff_diff = np.empty(reps)
    for start, panels in generate_panels(spec, reps, seed, STREAM_PANEL, PURPOSE_QUAD):
        c = len(panels)
        sums = batch_block_sums(panels, scheme)
        quad = np.abs((sums**2).sum(axis=1) / spec.n).max(axis=1)
        quad_vals[start : start + c] = quad ** (q / 2.0)
        eps = batch_multipliers(mult, scheme.count, seed, PURPOSE_HOEFFDING, start, start + c)
        mstat = batch_multiplier_max(sums, eps, spec.n)
        hoeff_diff[start : start + c] = mstat**q - factor * quad ** (q / 2.0)
    quad_est = _estimate_from_values(quad_vals)

    norm = psi_moment_norm(psi_q, spec, r, max(reps, 1000), seed)
    m_hat_q = norm.value / 2.0**q  # estimate of max_t || max_i |x[t,i]| ||_qr ** q
    subexp_warning = False
    if tail_mode == "lq":
        moment = mc_coordinate_mean_moment(spec, q, reps, seed)
        tail_bound = concentration_lq(spec.p, U, q, moment["value"])
        tail_info = {"mode": "lq", "q": q, "max_mean_moment": moment["value"],
                     "moment_se": moment["se"]}
    else:
        sub = concentration_subexp(spec.p, spec.n, U, tail_params)
        tail_bound = sub.value
        subexp_warning = sub.warning
        tail_info = {"mode": "subexp", "second_term": sub.second_term,
                     "warning": sub.warning,
                     "params": {"a": tail_params.a, "b": tail_params.b,
                                "gamma": tail_params.gamma, "phi": tail_params.phi}}
    r2 = remainder_R2(r, tail_bound, 2.0**q * m_hat_q)
    r1_quadrature = remainder_R1(psi_q, spec.n, U, rho_sum)
    r1_nscaled = power_R1_nscaled(q, spec.n, U, rho_sum)
    r1_used = max(r1_quadrature, r1_nscaled)

    rhs_mean = factor * quad_est.mean + 0.5 * (r1_used + r2)
    rhs = ExpectationEstimate(mean=rhs_mean, se=factor * quad_est.se,
                              reps=reps, mode="mc")
    main = _inequality("moment-bound", lhs, rhs, 0.0)
    mult_moment = _estimate_from_values(hoeff_diff + factor * quad_vals)
    hoeff = _inequality("hoeffding-step", mult_moment, quad_est.scaled(factor), 0.0,
                        paired=hoeff_diff)
    return VerificationReport(
        check="theorem1", lhs=lhs, mid=None, rhs=rhs,
        remainders={"R1_quadrature": r1_quadrature, "R1_nscaled": r1_nscaled,
                    "R1_used": r1_used, "R2": r2, "rho_sum": rho_sum,
                    "hoeffding_factor": factor, "quad_term": quad_est.mean,
                    "M_hat_q": m_hat_q, "tail_bound": tail_bound},
        rho=rho, margins=[main, hoeff],
        params={"n": spec.n, "p": spec.p, "b": scheme.b, "q": q, "r": r,
                "U": U, "seed": seed, "reps": reps},
        diagnostics={"tail": tail_info, "subexp_warning": subexp_warning,
                     "quad_term_se": quad_est.se, "psi_norm_se": norm.se},
    )


def cdf_integral_check(
    spec: DgpSpec,
    psi: PsiLike,
    U: float,
    reps: int,
    seed: int,
    grid_points: int = 401,
) -> dict:
    """Direct expectation versus the tail-integral route, shared sample.

    For panels supported inside [-U, U]^p the gauge expectation equals the
    integral of psi' times the exceedance probability of the max statistic
    over [0, U]; both sides are computed from the same replications so the
    residual is pure grid discretization.
    """
    bound = spec.support_bound
    if bound is None or bound > U + 1e-12:
        raise ValueError("the identity requires panel support inside [-U, U]^p")
    stats = np.empty(reps)
    for start, panels in generate_panels(spec, reps, seed, STREAM_PANEL, PURPOSE_LHS):
        stats[start : start + len(panels)] = batch_max_abs_mean(panels)
    direct = float(np.mean(np.asarray(psi_eval(psi, stats))))
    grid = np.linspace(0.0, U, grid_points)
    stats_sorted = np.sort(stats)
    exceed = 1.0 - np.searchsorted(stats_sorted, grid, side="right") / reps
    integrand = np.asarray(psi_deriv(psi, grid)) * exceed
    integral = float(np.trapezoid(integrand, grid))
    return {"direct": direct, "integral": integral,
            "relative_gap": abs(direct - integral) / max(abs(direct), 1e-300)}


def _psi_params(psi: PsiLike) -> dict:
    if isinstance(psi, PsiSpec) and psi.kind == "power":
        return {"q": psi.q}
    return {}
