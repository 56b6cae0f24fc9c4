"""Batch driver: configure experiments, run checks, emit reports.

One JSON config file fully determines a run. Subcommands:

- ``run <config>``: execute the requested checks in dependency order, write
  one JSON report per check plus a CSV summary; exit 0 iff nothing was
  violated.
- ``validate <config>``: parse and validate, listing every error with its
  field path.
- ``plot <kind> <reports...>``: emit tidy plot-ready CSV (series, x, y).

Report JSON is byte-deterministic for a fixed config and seed; timestamps
and environment notes go to a separate run_meta.json.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .blocking import BlockScheme, MultiplierSpec, make_blocks
from .gaussian import (
    GaussianModel,
    RhoEstimate,
    estimate_gaussian_model,
    sample_gaussian_max,
    simulate_max_statistics,
)
from .processes import DgpSpec, LongRunCovError
from .psi import PsiSpec, psi_moment_norm
from .remainders import (
    TailParams,
    VacuousBoundError,
    concentration_lq,
    concentration_subexp,
    fit_subexp_envelope,
    optimal_truncation,
    remainder_R1,
    remainder_R2,
)
from .verify import (
    CSV_COLUMNS,
    VerificationReport,
    mc_coordinate_mean_moment,
    mc_per_coordinate_tails,
    theorem1_bound,
    verify_independence_reduction,
    verify_prop1,
    verify_prop2,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_ERROR = 2


class ConfigError(ValueError):
    """Validation failure; ``problems`` lists (field_path, message) pairs."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.problems)
        super().__init__(f"invalid config: {lines}")


@dataclass
class ExperimentConfig:
    dgp: DgpSpec
    b: int
    multiplier: MultiplierSpec
    psi: PsiSpec
    truncation: dict
    r: float
    reps: int
    rho_reps: int
    seed: int
    checks: list
    gaussian_model: dict = field(default_factory=dict)
    tail: dict = field(default_factory=lambda: {"mode": "lq"})
    output_dir: str = "out"
    debug: dict = field(default_factory=dict)

    def scheme(self) -> BlockScheme:
        return make_blocks(self.dgp.n, self.b)

    def to_json_dict(self) -> dict:
        return {
            "dgp": self.dgp.to_json_dict(),
            "scheme": {"n": self.dgp.n, "b": self.b},
            "multiplier": self.multiplier.to_json_dict(),
            "psi": self.psi.to_json_dict(),
            "truncation": self.truncation,
            "r": self.r,
            "reps": self.reps,
            "rho_reps": self.rho_reps,
            "seed": self.seed,
            "checks": list(self.checks),
            "gaussian_model": self.gaussian_model,
            "tail": self.tail,
            "output_dir": self.output_dir,
            "debug": self.debug,
        }


_SECTIONS = ("dgp", "scheme", "multiplier", "psi", "truncation", "tail",
             "gaussian_model", "debug")
_INTEGER_FIELDS = ("dgp.n", "dgp.p", "scheme.b", "reps", "rho_reps", "seed",
                   "gaussian_model.reps")


def _shape_problems(node, path: str = "") -> list:
    """A root or section that is not an object, integer fields that are not
    JSON integers and numbers that are not finite, each with its field path."""
    if (not path or path in _SECTIONS) and not isinstance(node, dict):
        return [(path or "<root>", f"expected an object, got {type(node).__name__}")]
    if path in _INTEGER_FIELDS and (isinstance(node, bool) or not isinstance(node, int)):
        return [(path, f"expected an integer, got {node!r}")]
    if isinstance(node, float) and not math.isfinite(node):
        return [(path, f"expected a finite number, got {node!r}")]
    if isinstance(node, dict):
        children = [(f"{path}.{key}" if path else key, value) for key, value in node.items()]
    elif isinstance(node, list):
        children = [(f"{path}[{i}]", value) for i, value in enumerate(node)]
    else:
        return []
    return [found for child, value in children for found in _shape_problems(value, child)]


def parse_config(obj: dict) -> ExperimentConfig:
    """Build a validated config, collecting every problem before raising."""
    # The checks below read inside the sections, so shape problems come alone.
    problems = _shape_problems(obj)
    if problems:
        raise ConfigError(problems)

    def grab(path, ctor, default=None, required=True):
        node = obj
        for part in path.split(".")[:-1]:
            node = node.get(part, {})
        leaf = path.split(".")[-1]
        if leaf not in node:
            if required:
                problems.append((path, "missing"))
            return default
        try:
            return ctor(node[leaf])
        except (TypeError, ValueError) as exc:
            problems.append((path, str(exc)))
            return default

    dgp = grab("dgp", DgpSpec.from_json_dict)
    b = grab("scheme.b", int)
    mult = grab("multiplier", MultiplierSpec.from_json_dict,
                default=MultiplierSpec("rademacher"), required=False)
    psi = grab("psi", PsiSpec.from_json_dict)

    truncation = obj.get("truncation", {"mode": "fixed", "U": 1.0})
    mode = truncation.get("mode")
    if mode not in ("fixed", "optimal"):
        problems.append(("truncation.mode", f"expected fixed or optimal, got {mode!r}"))
    else:
        key = "U" if mode == "fixed" else "phi"
        level = truncation.get(key)
        if not isinstance(level, (int, float)) or level <= 0:
            problems.append((f"truncation.{key}", f"{mode} mode needs {key} > 0"))

    r = grab("r", float, default=2.0, required=False)
    if r is not None and r <= 1:
        problems.append(("r", f"Hoelder exponent must be > 1, got {r}"))
    reps = grab("reps", int)
    rho_reps = grab("rho_reps", int, default=reps, required=False)
    seed = grab("seed", int)
    model_reps = grab("gaussian_model.reps", int, required=False)
    for name, value in (("reps", reps), ("rho_reps", rho_reps),
                        ("gaussian_model.reps", model_reps)):
        if value is not None and value < 1000:
            problems.append((name, f"need at least 1000, got {value}"))

    checks = obj.get("checks")
    if not isinstance(checks, list) or not checks:
        problems.append(("checks", "need a nonempty list"))
        checks = []
    else:
        for i, c in enumerate(checks):
            if c not in KNOWN_CHECKS:
                problems.append((f"checks[{i}]", f"unknown check {c!r}; choose from {KNOWN_CHECKS}"))

    gaussian_model = obj.get("gaussian_model", {})
    if gaussian_model.get("method") not in (None, "analytic", "mc"):
        problems.append(("gaussian_model.method", "expected analytic or mc"))

    tail = obj.get("tail", {"mode": "lq"})
    if tail.get("mode") not in ("lq", "subexp"):
        problems.append(("tail.mode", "expected lq or subexp"))

    debug = obj.get("debug", {})
    output_dir = obj.get("output_dir", "out")
    if not isinstance(output_dir, str):
        problems.append(("output_dir", f"expected a string, got {output_dir!r}"))

    # Cross-field invariants.
    if dgp is not None and b is not None:
        if not 1 <= b <= dgp.n:
            problems.append(("scheme.b", f"need 1 <= b <= n, got b={b}, n={dgp.n}"))
        elif dgp.n % b != 0:
            problems.append(("scheme.b", f"block size must divide n (n={dgp.n}, b={b})"))
    if dgp is not None and "prop1" in checks and dgp.support_bound is None:
        problems.append(("checks", "prop1 requires a bounded generator kind"))
    if dgp is not None and "independence-reduction" in checks and not dgp.is_iid:
        problems.append(("checks", "independence-reduction requires an iid generator kind"))
    if psi is not None and "theorem1" in checks and psi.kind != "power":
        problems.append(("psi.kind", "theorem1 needs a power gauge"))
    needs_subexp = ("theorem1" in checks and tail.get("mode") == "subexp") or (
        truncation.get("mode") == "optimal"
    )
    if dgp is not None and needs_subexp and dgp.p <= math.e:
        problems.append(("dgp.p", "sub-exponential bounds need p > e (p >= 3)"))

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        dgp=dgp, b=b, multiplier=mult, psi=psi, truncation=truncation, r=r,
        reps=reps, rho_reps=rho_reps, seed=seed, checks=checks,
        gaussian_model=gaussian_model, tail=tail,
        output_dir=output_dir, debug=debug,
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise ConfigError([("<file>", f"not valid JSON: {exc}")])
    return parse_config(obj)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _plain(value):
    """Recursively convert numpy scalars and arrays for JSON output."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n")


def _resolve_model(config: ExperimentConfig) -> GaussianModel:
    method = config.gaussian_model.get("method")
    if method is None:
        try:
            return estimate_gaussian_model(config.dgp, method="analytic")
        except LongRunCovError:
            method = "mc"
    if method == "analytic":
        return estimate_gaussian_model(config.dgp, method="analytic")
    reps = int(config.gaussian_model.get("reps", config.rho_reps))
    return estimate_gaussian_model(config.dgp, method="mc", reps=reps, seed=config.seed)


def _fit_tail_params(config: ExperimentConfig, U_hint: float) -> TailParams:
    tail = config.tail
    gamma = float(tail.get("gamma", 1.0))
    phi = float(tail.get("phi", gamma / 2.0))
    if not tail.get("fit", True) and "a" in tail and "b" in tail:
        return TailParams(a=float(tail["a"]), b=float(tail["b"]), gamma=gamma, phi=phi)
    levels = U_hint * np.geomspace(0.25, 2.0, 8)
    tails = mc_per_coordinate_tails(config.dgp, levels, config.reps, config.seed)
    return fit_subexp_envelope(levels, tails, config.dgp.n, gamma=gamma,
                               amplitude=float(tail.get("a", 2.0)), phi=phi)


def _resolve_truncation(config: ExperimentConfig, rho: Optional[RhoEstimate]) -> dict:
    trunc = config.truncation
    if trunc["mode"] == "fixed":
        return {"U": float(trunc["U"]), "mode": "fixed"}
    if rho is None:
        raise RuntimeError("optimal truncation needs a rho estimate first")
    if config.psi.kind != "power":
        raise RuntimeError("optimal truncation needs a power gauge")
    q = config.psi.q
    phi = float(trunc["phi"])
    norm = psi_moment_norm(config.psi, config.dgp, config.r, config.reps, config.seed)
    m_hat = (norm.value / 2.0**q) ** (1.0 / q)
    rho_sum = rho.rho + rho.rho_star
    u_star = optimal_truncation(q, config.r, phi, rho_sum, config.dgp.p,
                                config.dgp.n, m_hat)
    return {"U": u_star, "mode": "optimal", "phi": phi, "M_hat": m_hat,
            "rho_sum": rho_sum}


def _quantile_grid(samples: dict, points: int = 257) -> dict:
    probs = np.linspace(0.0, 1.0, points)
    grid = {"probs": probs.tolist()}
    for name, values in samples.items():
        grid[name] = np.quantile(values, probs).tolist()
    return grid


@dataclass
class _RunInputs:
    """What the checks of one run share: the distances and the truncation."""

    remainder_override: Optional[float]
    rho: Optional[RhoEstimate] = None
    rho_samples: Optional[dict] = None
    model_source: Optional[str] = None
    U: Optional[float] = None


def _remainder_inputs(config: ExperimentConfig, run: _RunInputs, psi_norm: float,
                      tail: dict) -> dict:
    """What the remainder-vs-U plot needs to recompute R1 and R2 at any U."""
    return {"psi": config.psi.to_json_dict(), "n": config.dgp.n, "p": config.dgp.p,
            "rho_sum": run.rho.rho + run.rho.rho_star, "r": config.r,
            "psi_norm": psi_norm, "tail": tail, "U": run.U}


def _run_prop1(config: ExperimentConfig, run: _RunInputs) -> VerificationReport:
    return verify_prop1(
        config.dgp, config.scheme(), config.multiplier, config.psi, run.U,
        config.reps, run.rho, config.seed, remainder_override=run.remainder_override,
    )


def _run_prop2(config: ExperimentConfig, run: _RunInputs) -> VerificationReport:
    report = verify_prop2(
        config.dgp, config.scheme(), config.multiplier, config.psi, run.U,
        config.r, config.reps, run.rho, config.seed,
        remainder_override=run.remainder_override,
    )
    moment = mc_coordinate_mean_moment(config.dgp, 2.0, config.reps, config.seed)
    report.diagnostics["remainder_inputs"] = _remainder_inputs(
        config, run, report.remainders["psi_norm"],
        {"mode": "lq", "q": 2.0, "max_mean_moment": moment["value"]},
    )
    return report


def _run_theorem1(config: ExperimentConfig, run: _RunInputs) -> VerificationReport:
    tail_mode = config.tail.get("mode", "lq")
    tparams = _fit_tail_params(config, run.U) if tail_mode == "subexp" else None
    report = theorem1_bound(
        config.dgp, config.scheme(), config.multiplier, config.psi.q,
        config.r, run.U, config.reps, run.rho, tail_mode, config.seed,
        tail_params=tparams,
    )
    report.diagnostics["remainder_inputs"] = _remainder_inputs(
        config, run, 2.0**config.psi.q * report.remainders["M_hat_q"],
        dict(report.diagnostics["tail"], U=run.U),
    )
    return report


def _run_independence(config: ExperimentConfig, run: _RunInputs) -> VerificationReport:
    return verify_independence_reduction(config.dgp, config.psi, config.reps, config.seed)


def _run_rho_only(config: ExperimentConfig, run: _RunInputs) -> VerificationReport:
    return VerificationReport(
        check="rho-only", lhs=None, mid=None, rhs=None,
        remainders={}, rho=run.rho, margins=[],
        params={"n": config.dgp.n, "p": config.dgp.p, "b": config.b,
                "seed": config.seed, "reps": config.rho_reps},
        diagnostics={"cdf_grid": _quantile_grid(run.rho_samples),
                     "model_source": run.model_source},
    )


# Check name -> runner, in the order checks run and reports are written.
_CHECK_RUNNERS = {
    "prop1": _run_prop1,
    "prop2": _run_prop2,
    "theorem1": _run_theorem1,
    "independence-reduction": _run_independence,
    "rho-only": _run_rho_only,
}
KNOWN_CHECKS = tuple(_CHECK_RUNNERS)


def run_experiment(config: ExperimentConfig, output_dir: Optional[str] = None) -> int:
    """Execute every requested check; write reports; return the exit code."""
    out = Path(output_dir or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc)

    reports: dict[str, VerificationReport] = {}
    partial_error = None
    run = _RunInputs(remainder_override=0.0 if config.debug.get("zero_remainder") else None)

    try:
        needs_rho = any(c in config.checks for c in ("prop1", "prop2", "theorem1", "rho-only"))
        if needs_rho:
            model = _resolve_model(config)
            plain, starred = simulate_max_statistics(
                config.dgp, config.scheme(), config.multiplier, config.rho_reps, config.seed
            )
            gauss = sample_gaussian_max(model, config.rho_reps, config.seed)
            run.rho = RhoEstimate.from_samples(plain, starred, gauss)
            run.rho_samples = {"plain": plain, "multiplier": starred, "gaussian": gauss}
            run.model_source = model.source
        needs_trunc = any(c in config.checks for c in ("prop1", "prop2", "theorem1"))
        trunc = _resolve_truncation(config, run.rho) if needs_trunc else {"U": None}
        run.U = trunc.get("U")

        for check, runner in _CHECK_RUNNERS.items():
            if check not in config.checks:
                continue
            reports[check] = report = runner(config, run)
            if trunc.get("mode") == "optimal":
                report.diagnostics["truncation"] = trunc
    except Exception as exc:  # noqa: BLE001 - abort with a partial report
        partial_error = f"{type(exc).__name__}: {exc}"

    for check, report in reports.items():
        payload = report.to_json_dict()
        payload["config"] = config.to_json_dict()
        _dump_json(payload, out / f"{check}.json")
    if partial_error is not None:
        _dump_json(
            {"schema_version": 1, "partial": True, "error": partial_error,
             "completed_checks": sorted(reports), "config": config.to_json_dict()},
            out / "partial.json",
        )

    rows = [row for report in reports.values() for row in report.csv_rows()]
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(_plain(row) for row in rows)

    finished = datetime.datetime.now(datetime.timezone.utc)
    _dump_json(
        {"started": started.isoformat(), "finished": finished.isoformat(),
         "duration_seconds": (finished - started).total_seconds(),
         "versions": {"python": sys.version.split()[0], "numpy": np.__version__}},
        out / "run_meta.json",
    )

    for report in reports.values():
        for m in report.margins:
            print(f"{report.check}.{m.name}: {m.verdict} "
                  f"(margin={m.margin:.6g}, 3se={3 * m.se:.6g})")
    if partial_error is not None:
        print(f"error: {partial_error}", file=sys.stderr)
        return EXIT_ERROR
    if any(report.violated for report in reports.values()):
        return EXIT_VIOLATED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Plot data emission
# ---------------------------------------------------------------------------


def _tail_bound_vs_U(tail: dict, p: int, n: int, U: float) -> float:
    try:
        if tail["mode"] == "lq":
            return concentration_lq(p, U, tail["q"], tail["max_mean_moment"])
        params = tail["params"]
        return concentration_subexp(
            p, n, U, TailParams(a=params["a"], b=params["b"],
                                gamma=params["gamma"], phi=params["phi"])
        ).value
    except VacuousBoundError:
        return 1.0


def emit_plot_data(kind: str, report_paths: list, out_path) -> None:
    """Write tidy (series, x, y) CSV for one plot kind."""
    reports = []
    for path in report_paths:
        with open(path) as fh:
            reports.append(json.load(fh))

    rows = []
    if kind == "cdf-overlay":
        grid = next(
            (rep["diagnostics"]["cdf_grid"] for rep in reports
             if rep.get("diagnostics", {}).get("cdf_grid")), None,
        )
        if grid is None:
            raise ValueError("no report carries a cdf_grid (produced by rho-only runs)")
        for series in ("plain", "multiplier", "gaussian"):
            for x, prob in zip(grid[series], grid["probs"]):
                rows.append((series, x, prob))
    elif kind == "remainder-vs-U":
        inputs = next(
            (rep["diagnostics"]["remainder_inputs"] for rep in reports
             if rep.get("diagnostics", {}).get("remainder_inputs")), None,
        )
        if inputs is None:
            raise ValueError("no report carries remainder_inputs "
                             "(produced by prop2 and theorem1 runs)")
        psi = PsiSpec.from_json_dict(inputs["psi"])
        center = inputs["U"]
        for U in np.geomspace(center / 4.0, center * 4.0, 50):
            r1 = remainder_R1(psi, inputs["n"], float(U), inputs["rho_sum"])
            bound = _tail_bound_vs_U(inputs["tail"], inputs["p"], inputs["n"], float(U))
            r2 = remainder_R2(inputs["r"], bound, inputs["psi_norm"])
            rows.append(("R1", float(U), r1))
            rows.append(("R2", float(U), r2))
    elif kind == "bound-vs-p":
        inputs = next(
            (rep["diagnostics"]["remainder_inputs"] for rep in reports
             if rep.get("diagnostics", {}).get("remainder_inputs", {})
             .get("tail", {}).get("mode") == "subexp"), None,
        )
        if inputs is None:
            raise ValueError("bound-vs-p needs a report with a sub-exponential tail "
                             "(theorem1 with tail mode subexp)")
        params = inputs["tail"]["params"]
        tp = TailParams(a=params["a"], b=params["b"], gamma=params["gamma"],
                        phi=params["phi"])
        for p in (10, 100, 1000, 10**4, 10**5, 10**6):
            value = concentration_subexp(p, inputs["n"], inputs["U"], tp).value
            rows.append(("subexp-bound", p, value))
    else:
        raise ValueError(f"unknown plot kind {kind!r}")

    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "x", "y"])
        for series, x, y in rows:
            writer.writerow([series, x, y])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blocksym",
        description="Verify block-multiplier symmetrization inequalities by "
                    "Monte Carlo and exact enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the checks requested by a config file")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.add_argument("--output-dir", default=None,
                       help="override the config's output directory")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    p_plot = sub.add_parser("plot", help="emit plot-ready CSV from reports")
    p_plot.add_argument("kind", choices=["cdf-overlay", "remainder-vs-U", "bound-vs-p"])
    p_plot.add_argument("reports", nargs="+", help="report JSON paths")
    p_plot.add_argument("--out", default="plot_data.csv")

    args = parser.parse_args(argv)

    if args.command in ("validate", "run"):
        try:
            config = load_config(args.config)
        except ConfigError as exc:
            for path, msg in exc.problems:
                print(f"{path}: {msg}", file=sys.stderr)
            return EXIT_ERROR
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return EXIT_ERROR
        if args.command == "validate":
            print("config OK")
            return EXIT_OK
        return run_experiment(config, output_dir=args.output_dir)

    if args.command == "plot":
        try:
            emit_plot_data(args.kind, args.reports, args.out)
        except (ValueError, OSError, KeyError) as exc:
            print(f"plot failed: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(f"wrote {args.out}")
        return EXIT_OK

    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
