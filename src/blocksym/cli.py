"""Batch driver: configure experiments, run checks, emit reports.

One JSON config file fully determines a run. Subcommands:

- ``run <config>``: draw each of the run's panel passes once (tail, mid,
  marginal; the tail pass, drawn with multipliers, also yields the rho
  samples, and the Gaussian model is a closed form that draws nothing),
  execute the requested checks in dependency order, write one JSON report
  per check plus a CSV summary; exit 0 iff nothing was violated.
- ``validate <config>``: parse and validate, listing every error with its
  field path.
- ``plot <kind> <reports...>``: emit tidy plot-ready CSV (series, x, y).

Report JSON is byte-deterministic for a fixed config and seed; timestamps,
stage timings, the panel passes, each margin's slack and environment notes
go to a separate run_meta.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import json
import math
import re
import sys
import time
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from .blocking import (
    BlockScheme,
    Exceedances,
    MaxBelow,
    MultiplierSpec,
    PowerSums,
    StreamStatistics,
    draw_workers,
    make_blocks,
    recorded_passes,
    stream_statistics,
)
from .gaussian import RhoEstimate, estimate_gaussian_model, pass_rho_samples
from .processes import DgpSpec, Spec, _is_real, from_fields, marginal_spec
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
from .seeding import PURPOSE_MID, PURPOSE_NORM, PURPOSE_TAIL
from .verify import (
    CSV_COLUMNS,
    INDEPENDENCE_BLOCK,
    INDEPENDENCE_MULTIPLIER,
    VerificationReport,
    mc_coordinate_mean_moment,
    mc_per_coordinate_tails,
    require_support,
    tail_levels,
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


def _is_positive(value) -> bool:
    """Whether ``value`` is a number (not a boolean) above zero."""
    return _is_real(value) and value > 0


@dataclass(frozen=True)
class TruncationSpec(Spec):
    """The truncation level U of the chain checks: ``fixed`` at ``U``, or
    ``optimal``, the U* of ``optimal_truncation`` at the rate ``phi``."""

    mode: str = "fixed"
    U: float = 1.0
    phi: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("fixed", "optimal"):
            raise ValueError(f"mode: expected fixed or optimal, got {self.mode!r}")
        key = self.reads()[1]
        if not _is_positive(getattr(self, key)):
            raise ValueError(f"{key}: {self.mode} mode needs {key} > 0")

    def reads(self) -> tuple:
        return ("mode", "U" if self.mode == "fixed" else "phi")


@dataclass(frozen=True)
class TailSpec(Spec):
    """theorem1's tail bound: ``lq``, from the tail pass's moment at q, or
    ``subexp``, P(|mean_i| > x) <= a exp(-b n^gamma x^gamma) at rate phi
    (gamma / 2 unless given), b fitted at amplitude a unless ``fit`` is false.
    The echo leaves out a and fit at their defaults, so configs echo as written."""

    mode: str = "lq"
    gamma: float = 1.0
    phi: Optional[float] = None
    a: float = 2.0
    b: Optional[float] = None
    fit: bool = True

    def __post_init__(self):
        if self.mode not in ("lq", "subexp"):
            raise ValueError(f"mode: expected lq or subexp, got {self.mode!r}")
        for name in ("gamma", "a", "b"):
            value = getattr(self, name)
            if not (_is_positive(value) or (name == "b" and value is None)):
                raise ValueError(f"{name}: expected a number > 0, got {value!r}")
        if self.phi is None:
            object.__setattr__(self, "phi", self.gamma / 2.0)
        if not (_is_real(self.phi) and 0 < self.phi < self.gamma):
            raise ValueError(f"phi: must lie strictly inside (0, gamma), "
                             f"got phi={self.phi!r}, gamma={self.gamma}")
        if not isinstance(self.fit, bool):
            raise ValueError(f"fit: expected true or false, got {self.fit!r}")
        if not self.fit and self.b is None:
            raise ValueError("fit: fit false needs tail.b")

    QUIET = ("a", "fit")

    def reads(self) -> tuple:
        subexp = ("gamma", "phi", "a", "fit") + (() if self.fit else ("b",))
        return ("mode",) + (subexp if self.mode == "subexp" else ())


@dataclass
class ExperimentConfig:
    dgp: DgpSpec
    scheme: BlockScheme
    multiplier: MultiplierSpec
    psi: Optional[PsiSpec]
    truncation: TruncationSpec
    r: float
    reps: int
    seed: int
    checks: list
    tail: TailSpec = TailSpec()
    output_dir: str = "out"

    def to_json_dict(self) -> dict:
        """The config echo: each field, a spec through its ``to_json_dict``. The
        gauge and the truncation are left out when no chosen check reads them
        (the gauge is then None), so the echo parses again, and ``output_dir``
        always, so reports do not depend on where they go."""
        echo = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "output_dir" and getattr(self, f.name) is not None}
        if not _chooses(self.checks, _CHAIN_CHECKS):
            del echo["truncation"]
        return {name: value.to_json_dict() if isinstance(value, Spec) else value
                for name, value in echo.items()}


_SECTIONS = ("dgp", "scheme", "multiplier", "psi", "truncation", "tail")
# The root's keys; each section's are those its spec reads.
_ROOT_KEYS = tuple(f.name for f in fields(ExperimentConfig))
# Root fields that were once read, each with what is read instead.
_RETIRED = {
    "gaussian_model": "no longer read; the Gaussian model is the closed form of every kind",
    "rho_reps": "no longer read; rho reads the tail pass of reps replications",
}
_INTEGER_FIELDS = ("dgp.n", "dgp.p", "scheme.b", "scheme.n", "reps", "seed")


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


def _unread_root(key: str, node) -> list:
    """The problems of a root key that no config field reads: a retired
    section names each key it gives (``gaussian_model.method``), anything
    else is named itself."""
    if key in _RETIRED and isinstance(node, dict) and node:
        return [(f"{key}.{sub}", _RETIRED[key]) for sub in node]
    return [(key, _RETIRED.get(key, "unknown field"))]


# The checks that read the truncation, those that estimate rho and so read
# the scheme and the multiplier, and those that read the gauge.
_CHAIN_CHECKS = ("prop1", "prop2", "theorem1")
_RHO_CHECKS = (*_CHAIN_CHECKS, "rho-only")
_PSI_CHECKS = (*_CHAIN_CHECKS, "independence-reduction")


def _chooses(checks: list, readers: tuple) -> bool:
    """Whether one of ``readers`` is among ``checks``."""
    return any(check in checks for check in readers)


def parse_config(obj: dict) -> ExperimentConfig:
    """Build a validated config, collecting every problem before raising."""
    # The checks below read inside the sections, so shape problems come alone.
    problems = _shape_problems(obj)
    if problems:
        raise ConfigError(problems)
    problems += [found for key, node in obj.items() if key not in _ROOT_KEYS
                 for found in _unread_root(key, node)]

    def grab(path, ctor, default=MISSING):
        node = obj
        for part in path.split(".")[:-1]:
            node = node.get(part, {})
        leaf = path.split(".")[-1]
        if leaf not in node:
            if default is MISSING:
                problems.append((path, "missing"))
                return None
            return default
        try:
            return ctor(node[leaf])
        except (TypeError, ValueError) as exc:
            # Spec errors name their field first: "<field>: <message>".
            message = str(exc)
            field, sep, rest = message.partition(": ")
            if sep and re.fullmatch(r"\w+(\[\d+\])*", field):
                path, message = f"{path}.{field}", rest
            problems.append((path, message))
            return None

    dgp = grab("dgp", partial(from_fields, DgpSpec))
    # make_blocks checks the partition; with no valid dgp only presence is checked.
    scheme = grab("scheme.b", partial(make_blocks, dgp.n) if dgp else int)
    # The config echo writes scheme.n, so it parses again when it equals dgp.n.
    if dgp is not None and obj.get("scheme", {}).get("n", dgp.n) != dgp.n:
        problems.append(("scheme.n", f"must equal dgp.n ({dgp.n}), got {obj['scheme']['n']}"))
    mult = grab("multiplier", partial(from_fields, MultiplierSpec), MultiplierSpec("rademacher"))
    psi = grab("psi", partial(from_fields, PsiSpec), None)
    truncation = grab("truncation", partial(from_fields, TruncationSpec), TruncationSpec())
    tail = grab("tail", partial(from_fields, TailSpec), TailSpec())

    r = obj.get("r", 2.0)
    if not (_is_real(r) and 1 < r <= sys.float_info.max):
        problems.append(("r", f"Hoelder exponent must be a finite number > 1, got {r!r}"))
    else:
        r = float(r)
    reps = grab("reps", int)
    seed = grab("seed", int)
    if seed is not None and not 0 <= seed < 2**64:
        # Keys are mixed modulo 2**64, so a seed outside would draw another's panels.
        problems.append(("seed", f"expected an integer in [0, 2**64), got {seed}"))
    if reps is not None and reps < 1000:
        problems.append(("reps", f"need at least 1000, got {reps}"))

    checks = obj.get("checks")
    if not isinstance(checks, list) or not checks:
        problems.append(("checks", "need a nonempty list"))
        checks = []
    else:
        for i, c in enumerate(checks):
            if c not in KNOWN_CHECKS:
                problems.append((f"checks[{i}]", f"unknown check {c!r}; choose from {KNOWN_CHECKS}"))
            elif c in checks[:i]:
                problems.append((f"checks[{i}]", f"{c!r} is listed twice; each check runs once"))
    if "psi" not in obj and (not checks or _chooses(checks, _PSI_CHECKS)):
        problems.append(("psi", "missing"))

    # One rule for every section: each given key is read by the section's
    # kind or mode and by a chosen check. A section no chosen check reads may
    # give only what such a run uses, as its echo writes it: the block length
    # and multiplier law of the independence reduction, the lq tail, and no
    # gauge or truncation. Without a valid checks list, each section is
    # checked as if read.
    sections = {"dgp": (dgp, (), None), "psi": (psi, _PSI_CHECKS, None),
                "scheme": (scheme, _RHO_CHECKS,
                           make_blocks(dgp.n, INDEPENDENCE_BLOCK) if dgp else None),
                "multiplier": (mult, _RHO_CHECKS, INDEPENDENCE_MULTIPLIER),
                "truncation": (truncation, _CHAIN_CHECKS, None),
                "tail": (tail, ("theorem1",), TailSpec())}
    for section, (value, readers, unread) in sections.items():
        given = obj.get(section, {})
        if not isinstance(value, Spec):
            continue
        if not readers or not checks or _chooses(checks, readers):
            why = f"this {section} reads only {', '.join(value.reads())}"
            unread_keys = [key for key in given if key not in value.reads()]
        else:
            used = unread.to_json_dict() if unread else {}
            why = (f"only {', '.join(readers)} read it, and none is chosen"
                   + (f"; the run uses {used}" if used else ""))
            unread_keys = [key for key in given if used.get(key, MISSING) != given[key]]
        problems += [(f"{section}.{key}", f"not read: {why}") for key in unread_keys]

    output_dir = obj.get("output_dir", "out")
    if not isinstance(output_dir, str):
        problems.append(("output_dir", f"expected a string, got {output_dir!r}"))

    # Cross-field invariants.
    mode = truncation.mode if truncation else None
    if dgp is not None and "prop1" in checks:
        bound = dgp.support_bound
        if bound is None:
            problems.append(("checks", "prop1 requires a bounded generator kind"))
        elif mode == "fixed" and bound > truncation.U + 1e-12:
            problems.append(("truncation.U", f"prop1 needs U at least the panel "
                                             f"support bound {bound}, got {truncation.U}"))
    if dgp is not None and "independence-reduction" in checks and not dgp.is_iid:
        problems.append(("checks", "independence-reduction requires an iid generator kind"))
    if psi is not None and psi.kind != "power":
        if "theorem1" in checks:
            problems.append(("psi.kind", "theorem1 needs a power gauge"))
        if mode == "optimal":
            problems.append(("psi.kind", "optimal truncation needs a power gauge"))
    needs_subexp = ("theorem1" in checks and tail and tail.mode == "subexp") or mode == "optimal"
    if dgp is not None and needs_subexp and dgp.p <= math.e:
        problems.append(("dgp.p", "sub-exponential bounds need p > e (p >= 3)"))
    elif dgp is not None and "theorem1" in checks and dgp.p < 2:
        problems.append(("dgp.p", "theorem1's lq tail bound needs p >= 2"))

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        dgp=dgp, scheme=scheme, multiplier=mult, psi=psi, truncation=truncation, r=r, reps=reps,
        seed=seed, checks=checks, tail=tail, output_dir=output_dir)


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


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _fit_tail_params(config: ExperimentConfig, run: _RunInputs) -> TailParams:
    tail = config.tail
    gamma, phi, a = float(tail.gamma), float(tail.phi), float(tail.a)
    if not tail.fit:
        return TailParams(a, float(tail.b), gamma, phi)
    levels = tail_levels(run.U)
    tails = mc_per_coordinate_tails(run.tail, levels)
    return fit_subexp_envelope(levels, tails, config.dgp.n, gamma=gamma, amplitude=a, phi=phi)


def _resolve_truncation(config: ExperimentConfig, run: _RunInputs) -> dict:
    # Every check that needs a truncation also draws rho, and parse_config
    # admits optimal truncation only with a power gauge.
    trunc = config.truncation
    if trunc.mode == "fixed":
        return {"U": float(trunc.U), "mode": "fixed"}
    q, phi = config.psi.q, float(trunc.phi)
    norm = psi_moment_norm(config.psi, run.marginal, config.r)
    m_hat = (norm.value / 2.0**q) ** (1.0 / q)
    rho_sum = run.rho.rho + run.rho.rho_star
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
    """What the checks of one run share: the distances, the truncation and
    the statistics of the mid, tail and marginal passes, each drawn once."""

    rho: Optional[RhoEstimate] = None
    rho_samples: Optional[dict] = None
    U: Optional[float] = None
    mid: Optional[StreamStatistics] = None
    tail: Optional[StreamStatistics] = None
    marginal: Optional[StreamStatistics] = None


def _remainder_inputs(config: ExperimentConfig, run: _RunInputs, psi_norm: float,
                      tail: dict) -> dict:
    """What the remainder-vs-U plot needs to recompute R1 and R2 at any U."""
    return {"psi": config.psi.to_json_dict(), "n": config.dgp.n, "p": config.dgp.p,
            "rho_sum": run.rho.rho + run.rho.rho_star, "r": config.r,
            "psi_norm": psi_norm, "tail": tail, "U": run.U}


def _tail_reductions(config: ExperimentConfig, U: float) -> tuple:
    """Every reduction of the tail stream's column means that the chain
    checks read at truncation level ``U``: the exceedance counts of the
    sub-exponential fit, prop2's split diagnostic and its lq moment at
    q = 2, and theorem1's lq moment at q."""
    checks, tail_mode = config.checks, config.tail.mode
    reductions = ()
    if "theorem1" in checks and tail_mode == "subexp" and config.tail.fit:
        reductions += (Exceedances(tail_levels(U)),)
    if "prop2" in checks:
        reductions += (MaxBelow(U), PowerSums(2.0))
    if "theorem1" in checks and tail_mode == "lq":
        reductions += (PowerSums(float(config.psi.q)),)
    return reductions


def _marginal_pass(config: ExperimentConfig) -> StreamStatistics:
    """The marginal rows whose gauge moment norm prop2, theorem1 and
    optimal truncation read: one-row panels, whose means are the rows."""
    return stream_statistics(marginal_spec(config.dgp), config.reps, config.seed, PURPOSE_NORM)


@contextlib.contextmanager
def _timed(meta: dict, name: str):
    """Add the wall time of the block to ``meta["stages"][name]``, in
    seconds. A stage run twice (the tail stream under optimal truncation)
    reports the sum."""
    started = time.perf_counter()
    try:
        yield
    finally:
        meta["stages"][name] = meta["stages"].get(name, 0.0) + time.perf_counter() - started


def _truncate(config: ExperimentConfig, run: _RunInputs, meta: dict) -> dict:
    """Resolve the truncation as the ``truncation`` stage and set ``run.U``;
    with prop1, check U against the panel support before any pass reads it."""
    with _timed(meta, "truncation"):
        trunc = _resolve_truncation(config, run)
    run.U = trunc["U"]
    if "prop1" in config.checks:
        require_support(config.dgp, run.U)
    return trunc


def _draw_tail(config: ExperimentConfig, run: _RunInputs, meta: dict,
               reductions: tuple, multipliers: bool = False) -> None:
    """Draw the tail stream as the ``tail`` stage, folding ``reductions``,
    with the config's block scheme and multiplier law if ``multipliers``;
    nothing when the pass would fold nothing and have no multipliers."""
    if reductions or multipliers:
        law = (config.scheme, config.multiplier) if multipliers else (None, None)
        with _timed(meta, "tail"):
            run.tail = stream_statistics(config.dgp, config.reps, config.seed, PURPOSE_TAIL,
                                         *law, reductions=reductions)


def _run_prop1(config: ExperimentConfig, run: _RunInputs) -> VerificationReport:
    return verify_prop1(config.psi, run.U, run.rho, mid=run.mid)


def _run_prop2(config: ExperimentConfig, run: _RunInputs) -> VerificationReport:
    report = verify_prop2(config.psi, run.U, config.r, run.rho,
                          mid=run.mid, tail=run.tail, marginal=run.marginal)
    moment = mc_coordinate_mean_moment(run.tail, 2.0)
    report.diagnostics["remainder_inputs"] = _remainder_inputs(
        config, run, report.remainders["psi_norm"],
        {"mode": "lq", "q": 2.0, "max_mean_moment": moment["value"]},
    )
    return report


def _run_theorem1(config: ExperimentConfig, run: _RunInputs) -> VerificationReport:
    tail = ({"tail_params": _fit_tail_params(config, run)} if config.tail.mode == "subexp"
            else {"tail": run.tail})
    report = theorem1_bound(config.psi.q, config.r, run.U, run.rho,
                            mid=run.mid, marginal=run.marginal, **tail)
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
        params={"n": config.dgp.n, "p": config.dgp.p, "b": config.scheme.b,
                "seed": config.seed, "reps": config.reps},
        diagnostics={"cdf_grid": _quantile_grid(run.rho_samples)},
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
    run = _RunInputs()
    meta = {"stages": {}}

    with recorded_passes() as passes:
        try:
            # Each pass drawn once, in the order tail, mid, marginal. The
            # tail pass, drawn with the config's block scheme and multiplier
            # law, gives the plain and multiplier samples of rho; a fixed U
            # is known before it, so it also folds every reduction that reads
            # U. Optimal truncation is the exception: its U reads rho, so the
            # marginal rows whose norm U reads come first, and the tail stream
            # is drawn once for rho and again, over the same panels, for the
            # reductions that read U.
            chain = _chooses(config.checks, _CHAIN_CHECKS)
            optimal = chain and config.truncation.mode == "optimal"
            reductions = ()
            if optimal:
                with _timed(meta, "marginal"):
                    run.marginal = _marginal_pass(config)
            elif chain:
                _truncate(config, run, meta)
                reductions = _tail_reductions(config, run.U)
            if _chooses(config.checks, _RHO_CHECKS):
                _draw_tail(config, run, meta, reductions, multipliers=True)
                with _timed(meta, "rho"):
                    samples = pass_rho_samples(run.tail, estimate_gaussian_model(config.dgp))
                    run.rho = RhoEstimate.from_samples(*samples)
                run.rho_samples = samples._asdict()
            if optimal:
                trunc = _truncate(config, run, meta)
                _draw_tail(config, run, meta, _tail_reductions(config, run.U))
            if chain:
                with _timed(meta, "mid"):
                    run.mid = stream_statistics(config.dgp, config.reps, config.seed,
                                                PURPOSE_MID, config.scheme, config.multiplier)
                if not optimal and ("prop2" in config.checks or "theorem1" in config.checks):
                    with _timed(meta, "marginal"):
                        run.marginal = _marginal_pass(config)

            for check, runner in _CHECK_RUNNERS.items():
                if check not in config.checks:
                    continue
                with _timed(meta, check):
                    reports[check] = report = runner(config, run)
                if optimal:
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
        writer.writerows(rows)

    finished = datetime.datetime.now(datetime.timezone.utc)
    _dump_json(
        {"started": started.isoformat(), "finished": finished.isoformat(),
         "duration_seconds": (finished - started).total_seconds(),
         "panel_streams": {"drawn": len(passes), "passes": passes},
         **meta,
         "slack": {f"{report.check}.{m.name}": m.slack
                   for report in reports.values() for m in report.margins},
         "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                      "scipy": scipy.__version__},
         "draw_workers": draw_workers()},
        out / "run_meta.json",
    )

    for report in reports.values():
        for m in report.margins:
            slack = "null" if m.slack is None else f"{m.slack:.6g}"
            print(f"{report.check}.{m.name}: {m.verdict} "
                  f"(margin={m.margin:.6g}, 3se={3 * m.se:.6g}, slack={slack})")
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
        return concentration_subexp(p, n, U, from_fields(TailParams, tail["params"])).value
    except VacuousBoundError:
        return 1.0


def emit_plot_data(kind: str, report_paths: list, out_path) -> None:
    """Write tidy (series, x, y) CSV for one plot kind."""
    diagnostics = []
    for path in report_paths:
        with open(path) as fh:
            diagnostics.append(json.load(fh).get("diagnostics", {}))
    grids = [found["cdf_grid"] for found in diagnostics if found.get("cdf_grid")]
    inputs = [found["remainder_inputs"] for found in diagnostics
              if found.get("remainder_inputs")]

    rows = []
    if kind == "cdf-overlay":
        if not grids:
            raise ValueError("no report carries a cdf_grid (produced by rho-only runs)")
        for series in ("plain", "multiplier", "gaussian"):
            for x, prob in zip(grids[0][series], grids[0]["probs"]):
                rows.append((series, x, prob))
    elif kind == "remainder-vs-U":
        if not inputs:
            raise ValueError("no report carries remainder_inputs "
                             "(produced by prop2 and theorem1 runs)")
        inputs = inputs[0]
        psi = from_fields(PsiSpec, inputs["psi"])
        center = inputs["U"]
        for U in np.geomspace(center / 4.0, center * 4.0, 50):
            r1 = remainder_R1(psi, float(U), inputs["rho_sum"])
            bound = _tail_bound_vs_U(inputs["tail"], inputs["p"], inputs["n"], float(U))
            r2 = remainder_R2(inputs["r"], bound, inputs["psi_norm"])
            rows.append(("R1", float(U), r1))
            rows.append(("R2", float(U), r2))
    elif kind == "bound-vs-p":
        inputs = [found for found in inputs if found["tail"]["mode"] == "subexp"]
        if not inputs:
            raise ValueError("bound-vs-p needs a report with a sub-exponential tail "
                             "(theorem1 with tail mode subexp)")
        inputs = inputs[0]
        tp = from_fields(TailParams, inputs["tail"]["params"])
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

    try:
        emit_plot_data(args.kind, args.reports, args.out)
    except (ValueError, OSError, KeyError) as exc:
        print(f"plot failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"wrote {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
