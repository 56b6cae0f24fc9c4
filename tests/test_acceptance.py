"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expectation below is either exact (enumeration, closed form) or a
Monte Carlo estimate compared at its stated tolerance, with all random
streams fixed so reruns are bit-identical.
"""

import math
import os
import time

import numpy as np
from scipy.special import gammaln
from scipy.stats import binom

from blocksym import processes
from blocksym.blocking import (
    Exceedances,
    MultiplierSpec,
    PowerSums,
    batch_max_abs_mean,
    make_blocks,
)
from blocksym.cli import parse_config, run_experiment
from blocksym.gaussian import RhoEstimate, estimate_gaussian_model, estimate_rhos
from blocksym.processes import MAX_BLOCK_REPS, DgpSpec
from blocksym.psi import PsiSpec, psi_moment_norm
from blocksym.remainders import (
    concentration_general,
    concentration_lq,
    concentration_subexp,
    fit_subexp_envelope,
    optimal_truncation,
    optimal_truncation_forms,
    power_R1_nscaled,
    remainder_R1,
    remainder_Rn,
    subexp_total_bound,
)
from blocksym.verify import (
    exact_enumeration,
    mc_coordinate_mean_moment,
    mc_per_coordinate_tails,
    verify_independence_reduction,
)
from conftest import draw_panels, marginal_pass, mc_model, run_prop1, run_theorem1, tail_pass

RADEMACHER = MultiplierSpec("rademacher")


# Closed forms of the power-gauge blocking remainder R_n: the substitution
# form and its n-scaled variant, which carries an extra n**(-q/2).
def power_Rn_closed_form(q, U, rho_sum):
    return rho_sum * U**q


def power_Rn_nscaled(q, n, U, rho_sum):
    return rho_sum * U**q * n ** (-q / 2.0)


# The substitution form of the power-gauge split remainder R1.
def power_R1_closed_form(q, U, rho_sum):
    return 2.0 ** (q - 2.0) * rho_sum * U**q


def report_line(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_enumeration_oracle_gate():
    # n=4, p=2, b=2 random-sign panel: prop1's lhs, mid and rhs at
    # reps = 1e5 match exact enumeration within 3 SE for both gauges.
    started = time.monotonic()
    spec = DgpSpec("bounded_rademacher", n=4, p=2)
    scheme = make_blocks(4, 2)
    reps = 100_000
    no_rho = RhoEstimate(rho=0.0, rho_star=0.0, rho_direct=0.0, reps=reps, se=0.0)
    ok = True
    details = []
    for q in (1.0, 2.0):
        psi = PsiSpec("power", q=q)
        exact = exact_enumeration(spec, scheme, RADEMACHER, psi)
        report = run_prop1(spec, scheme, psi, 1.0, reps, no_rho, seed=101)
        for name in ("lhs", "mid", "rhs"):
            est, target = getattr(report, name), getattr(exact, name)
            gap = abs(est.mean - target)
            ok &= gap < 3 * est.se
            details.append(f"q={q} {name} gap={gap:.5f} 3se={3 * est.se:.5f}")
    elapsed = time.monotonic() - started
    ok &= elapsed < 60.0
    report_line(1, ok, f"{'; '.join(details)}; elapsed={elapsed:.1f}s")


def test_criterion_2_bounded_chain_dependent():
    # Clipped autoregression, n=128, p=20, b=8, square gauge: both bounded
    # chain inequalities hold in the 3-SE band with estimated distances.
    started = time.monotonic()
    spec = DgpSpec("truncated_var1", n=128, p=20, phi=0.5, truncation=3.0)
    scheme = make_blocks(128, 8)
    psi = PsiSpec("power", q=2.0)
    model = mc_model(spec, 10_000, seed=202)
    rho = estimate_rhos(spec, scheme, RADEMACHER, model, 10_000, seed=202)
    report = run_prop1(spec, scheme, psi, 3.0, 10_000, rho, seed=202)
    elapsed = time.monotonic() - started
    verdicts = {m.name: m.verdict for m in report.margins}
    ok = all(v in ("holds", "holds-within-noise") for v in verdicts.values())
    ok &= elapsed < 600.0
    report_line(2, ok, f"verdicts={verdicts}, rho_sum={rho.rho + rho.rho_star:.4f}, "
                       f"R_n={report.remainders['R_n']:.4f}, elapsed={elapsed:.1f}s")


def test_criterion_3_independence_reduction():
    # iid Gaussian, singleton blocks, sign multipliers, independent-copy
    # differences: the two-sided paired margin sits within 3 SE of zero.
    spec = DgpSpec("iid_gaussian", n=32, p=3)
    report = verify_independence_reduction(spec, PsiSpec("power", q=2.0),
                                           100_000, seed=303)
    margin = report.margins[0]
    ok = abs(margin.margin) <= 3 * margin.se
    report_line(3, ok, f"|diff|={abs(margin.margin):.6f} 3se={3 * margin.se:.6f}")


def test_criterion_4_quadrature_vs_closed_forms():
    # Power-gauge remainders match the substitution closed forms to 1e-9
    # relative on the full grid (they do not read n), and the n-scaled
    # closed-form variant is printed with its discrepancy factor.
    started = time.monotonic()
    rho_sum = 0.2347
    ok = True
    worst = 0.0
    for q in (1.0, 1.5, 2.0, 4.0):
        psi = PsiSpec("power", q=q)
        for U in (0.1, 1.0, 10.0):
            base = remainder_Rn(psi, U, rho_sum)
            split = remainder_R1(psi, U, rho_sum)
            rel1 = abs(base - power_Rn_closed_form(q, U, rho_sum)) / base
            rel2 = abs(split - power_R1_closed_form(q, U, rho_sum)) / split
            worst = max(worst, rel1, rel2)
            ok &= rel1 < 1e-9 and rel2 < 1e-9
    q, n, U = 2.0, 128, 1.5
    substitution = remainder_Rn(PsiSpec("power", q=q), U, rho_sum)
    scaled = power_Rn_nscaled(q, n, U, rho_sum)
    scaled_split = power_R1_nscaled(q, n, U, rho_sum)
    print(f"    closed-form comparison at q={q}, n={n}, U={U}: "
          f"substitution={substitution:.6g}, n-scaled variant={scaled:.6g} "
          f"(extra factor n**(-q/2)={n ** (-q / 2):.3g}), "
          f"n-scaled split variant={scaled_split:.6g}")
    flagged = not math.isclose(substitution, scaled, rel_tol=1e-6)
    ok &= flagged
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    report_line(4, ok, f"worst rel gap={worst:.2e}, n-scaled discrepancy "
                       f"flagged={flagged}, elapsed={elapsed:.2f}s")


def test_criterion_5_concentration_domination():
    # Var1(0.5), n=128, p=20: every applicable bound dominates the MC
    # exceedance probability minus 3 SE on a 10-point level grid.
    spec = DgpSpec("var1", n=128, p=20, phi=0.5)
    reps = 10_000
    grid = np.linspace(0.6, 1.5, 10)
    stats = np.empty(reps)
    for start in range(0, reps, MAX_BLOCK_REPS):
        stop = min(start + MAX_BLOCK_REPS, reps)
        stats[start:stop] = batch_max_abs_mean(draw_panels(spec, 505, 1, 0, start, stop))
    tail = tail_pass(spec, reps, 505, Exceedances(tuple(grid)), PowerSums(2.0))
    pbar_grid = mc_per_coordinate_tails(tail, grid)
    moment = mc_coordinate_mean_moment(tail, 2.0)["value"]
    envelope = fit_subexp_envelope(grid, pbar_grid, spec.n, gamma=1.0, amplitude=2.0,
                                   phi=0.5)
    ok = True
    rows = []
    for u, pbar in zip(grid, pbar_grid):
        hat = float((stats >= u).mean())
        se = math.sqrt(hat * (1.0 - hat) / reps)
        floor = hat - 3 * se
        b_general = concentration_general(spec.p, float(pbar))
        b_lq = concentration_lq(spec.p, float(u), 2.0, moment)
        b_subexp = concentration_subexp(spec.p, spec.n, float(u), envelope).value
        ok &= b_general >= floor and b_lq >= floor and b_subexp >= floor
        rows.append((round(float(u), 2), round(hat, 4), round(b_general, 4),
                     round(b_lq, 4), round(b_subexp, 4)))
    report_line(5, ok, f"(U, phat, general, lq, subexp) rows={rows[:3]}...{rows[-1]}")


def test_criterion_6_moment_bound():
    # Var1 configuration, q in {1, 2}, r=2, level from the optimal
    # truncation formula, conservative blocking-remainder variant.
    started = time.monotonic()
    spec = DgpSpec("var1", n=128, p=20, phi=0.5)
    scheme = make_blocks(128, 8)
    r, phi = 2.0, 0.5
    model = estimate_gaussian_model(spec)
    rho = estimate_rhos(spec, scheme, RADEMACHER, model, 10_000, seed=606)
    rho_sum = rho.rho + rho.rho_star
    ok = True
    details = []
    for q in (1.0, 2.0):
        norm = psi_moment_norm(PsiSpec("power", q=q), marginal_pass(spec, 10_000, 606), r)
        m_hat = (norm.value / 2.0**q) ** (1.0 / q)
        u_star = optimal_truncation(q, r, phi, rho_sum, spec.p, spec.n, m_hat)
        levels = u_star * np.geomspace(0.25, 2.0, 8)
        tails = mc_per_coordinate_tails(tail_pass(spec, 10_000, 606, Exceedances(tuple(levels))),
                                        levels)
        envelope = fit_subexp_envelope(levels, tails, spec.n, gamma=1.0, amplitude=2.0,
                                       phi=phi)
        report = run_theorem1(spec, scheme, q, r, u_star,
                              10_000, rho, seed=606,
                              tail_params=envelope)
        main = report.margins[0]
        used = report.remainders["R1_used"]
        ok &= main.verdict in ("holds", "holds-within-noise")
        ok &= used == max(report.remainders["R1_quadrature"],
                          report.remainders["R1_nscaled"])
        details.append(f"q={q}: U*={u_star:.3f} margin={main.margin:.4f} "
                       f"{main.verdict}")
    elapsed = time.monotonic() - started
    ok &= elapsed < 600.0
    report_line(6, ok, f"{'; '.join(details)}; elapsed={elapsed:.1f}s")


def test_criterion_7_optimal_truncation():
    # Local minimality of the power/sub-exponential objective at the
    # closed-form level, plus agreement of both printed arrangements.
    q, r, phi, rho_sum, p, n, m = 2.0, 2.0, 0.5, 0.1, 20, 128, 1.7
    u_star = optimal_truncation(q, r, phi, rho_sum, p, n, m)
    at = subexp_total_bound(q, r, phi, rho_sum, p, n, m, u_star)
    ok = at <= subexp_total_bound(q, r, phi, rho_sum, p, n, m, 0.5 * u_star)
    ok &= at <= subexp_total_bound(q, r, phi, rho_sum, p, n, m, 2.0 * u_star)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        args = (
            rng.uniform(1.0, 4.0), rng.uniform(1.1, 5.0), rng.uniform(0.05, 2.0),
            rng.uniform(1e-4, 1.5), rng.uniform(3.0, 1e6),
            int(rng.integers(4, 100_000)), rng.uniform(0.1, 50.0),
        )
        u1, u2 = optimal_truncation_forms(*args)
        worst = max(worst, abs(u1 - u2) / abs(u1))
    ok &= worst <= 1e-12
    report_line(7, ok, f"U*={u_star:.4f} minimal on (0.5x, 2x); "
                       f"worst form gap={worst:.2e}")


def ks_equal_size_tail(m, k):
    """P(D >= k/m) for the two-sample KS statistic of two samples of size m
    from one continuous law (Gnedenko-Korolyuk):
    2 sum_{j>=1} (-1)^{j+1} C(2m, m - jk) / C(2m, m)."""
    j = np.arange(1, m // k + 1)
    log_ratio = 2.0 * gammaln(m + 1) - gammaln(m - j * k + 1) - gammaln(m + j * k + 1)
    return float(2.0 * np.sum((-1.0) ** (j + 1) * np.exp(log_ratio)))


def calibrated_rejections(trials, reps, first_seed):
    """Whether the null rejection counts of rho and rho_star each fall in
    their exact binomial band, and a line that says so.

    On iid Gaussian panels the law is exactly Gaussian and sign flips keep
    it, so rho and rho_star are each a two-sample KS statistic between
    independent samples of one law. Across independent trials the count of
    each at or above crit = 1.36 sqrt(2 / reps) is Bin(trials, alpha), with
    alpha the exact null tail. The distances are multiples of 1/reps,
    compared as integers so that rounding cannot move a trial across crit.
    Each count's two-sided band has false-alarm probability 1e-6.
    """
    spec = DgpSpec("iid_gaussian", n=16, p=2)
    model = estimate_gaussian_model(spec)
    scheme = make_blocks(16, 4)
    crit = 1.36 * math.sqrt(2.0 / reps)
    k = math.ceil(crit * reps)
    alpha = ks_equal_size_tail(reps, k)
    half = 0.5e-6  # false-alarm probability of each side of the band, per count
    low, high = binom.ppf(half, trials, alpha), binom.isf(half, trials, alpha)
    counts = {"rho": 0, "rho_star": 0}
    for trial in range(trials):
        est = estimate_rhos(spec, scheme, RADEMACHER, model, reps, seed=first_seed + trial)
        for name in counts:
            counts[name] += round(getattr(est, name) * reps) >= k
    ok = all(low <= c <= high for c in counts.values())
    return ok, (f"rejections at D >= {k}/{reps}: rho {counts['rho']}, "
                f"rho_star {counts['rho_star']} of {trials}; exact "
                f"Bin({trials}, {alpha:.4f}) band [{low:.0f}, {high:.0f}]")


def test_criterion_8_gaussian_exactness_calibration():
    # 40 trials at 100k replications each.
    report_line(8, *calibrated_rejections(40, 100_000, 123_000))


def test_criterion_8_calibrated_rejection_counts():
    # 400 trials at 5000 replications each.
    report_line(8, *calibrated_rejections(400, 5000, 808_000))


def test_criterion_9_determinism_across_workers(tmp_path, monkeypatch):
    # Byte-identical reports for the same config and seed whether the blocks
    # of 50 replications are drawn on one worker or on 16 threads.
    config = parse_config({
        "dgp": {"kind": "var1", "n": 32, "p": 4, "phi": 0.5},
        "scheme": {"b": 4},
        "multiplier": {"kind": "rademacher"},
        "psi": {"kind": "power", "q": 2.0},
        "truncation": {"mode": "fixed", "U": 2.0},
        "r": 2.0,
        "reps": 2000,
        "rho_reps": 2000,
        "seed": 909,
        "checks": ["rho-only", "prop2"],
    })
    monkeypatch.setattr(processes, "_BLOCK_BYTES", 50 * 32 * 4 * 8)
    outputs = {}
    for workers in (1, 16):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, workers=workers: set(range(workers)),
                            raising=False)
        out = tmp_path / f"w{workers}"
        assert run_experiment(config, output_dir=out) == 0
        outputs[workers] = {
            name: (out / name).read_bytes()
            for name in ("rho-only.json", "prop2.json", "summary.csv")
        }
    ok = outputs[1] == outputs[16]
    report_line(9, ok, "reports byte-identical for worker counts 1 and 16")
