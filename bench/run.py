"""Time from a config to a verdict, for the workloads named in BENCHMARK.json.

Usage (from the root of a checkout):

    python3 bench/run.py --workload full_suite --seed 1 --seconds 30 --trace 0

Each round runs one workload in a fresh interpreter (bench/child.py), one
round at a time from this single process, and checks the round's outputs.
Rounds repeat until ``--seconds`` would be exceeded, with at least three.
With ``--trace 0`` every round is untraced and the end-to-end metrics are
the medians over rounds. With ``--trace 1`` traced and untraced rounds
alternate, starting traced; the per-layer metrics are medians over the
traced rounds, and ``trace.overhead_pct`` compares the two kinds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details of every
round, with the aggregated spans of traced rounds, go to ``bench/.work``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
LEDGER = WORK / "ledger.json"

MIN_ROUNDS = 3
# Whole run, comfortably under the 180 s a run may take.
DEADLINE_S = 165.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from tracer import COUNT_METRICS  # noqa: E402


class BenchError(RuntimeError):
    pass


def code_digest() -> str:
    """sha256 over the program's sources and the bundled config.

    The ledger of outputs is keyed by it, with the interpreter and library
    versions, so only runs of the same code are compared."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [ROOT / "scripts" / "full_suite.json"]
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    """The caller's environment, with BLAS pools capped at the cores we may use."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            value = int(env.get(var, ""))
        except ValueError:
            value = 0
        if not 1 <= value <= nproc:
            env[var] = str(nproc)
    return env


def run_round(args, traced: bool, env: dict, deadline: float) -> dict:
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    spawned_at = time.perf_counter()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "1" if traced else "0",
           "--work", str(work), "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round exceeded the {DEADLINE_S:.0f} s budget") from exc
    wall = time.perf_counter() - spawned_at
    if proc.returncode != 0:
        raise BenchError(f"round exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(traced=traced, wall_s=wall)
    return result


def load_ledger() -> dict:
    try:
        return json.loads(LEDGER.read_text())
    except (OSError, ValueError):
        return {}


def save_ledger(ledger: dict) -> None:
    tmp = LEDGER.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(LEDGER)


def mismatches(reference: dict, seen: dict) -> set:
    return {k for k in reference.keys() | seen.keys() if reference.get(k) != seen.get(k)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    for needed in (ROOT / "src" / "blocksym" / "__init__.py",
                   ROOT / "scripts" / "full_suite.json"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} is missing; run from a checkout")

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    env = child_env()
    rounds = []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + longest > args.seconds:
            break
        if elapsed + longest > DEADLINE_S:
            if len(rounds) >= MIN_ROUNDS:
                break
            raise BenchError(f"{len(rounds)} rounds took {elapsed:.1f} s; "
                             f"{MIN_ROUNDS} do not fit in {DEADLINE_S:.0f} s")
        traced = bool(args.trace) and len(rounds) % 2 == 0
        result = run_round(args, traced, env, deadline)
        rounds.append(result)
        longest = max(longest, result["wall_s"])
        print(f"round {len(rounds)} {'traced' if traced else 'untraced'}: "
              f"run_s={result['run_s']:.4f} setup_s={result['setup_s']:.4f} "
              f"wall_s={result['wall_s']:.2f}", file=sys.stderr)

    # Determinism: every round of this seed, and every earlier run of the
    # same code and seed recorded in the ledger, must give identical outputs.
    env_info = rounds[0]["env"]
    version = f"{code_digest()} python {env_info['python']} numpy {env_info['numpy']} " \
              f"scipy {env_info['scipy']}"
    ledger = load_ledger()
    entry = ledger.setdefault(version, {}).setdefault(f"{args.workload}/{args.seed}", {})
    reference = entry.setdefault("digests", rounds[0]["digests"])
    correct = True
    attempted = failed = 0
    for k, r in enumerate(rounds):
        differ = mismatches(reference, r["digests"])
        ops = {op["name"] for op in r["ops"]}
        for op in r["ops"]:
            if differ and (op["name"] in differ or differ - ops):
                op["problems"].append(f"outputs differ from an earlier run: {sorted(differ)}")
            attempted += 1
            if op["problems"]:
                failed += 1
                print(f"round {k + 1} {op['name']} FAILED: {op['problems']}", file=sys.stderr)

    traced_rounds = [r for r in rounds if r["traced"]]
    untraced_rounds = [r for r in rounds if not r["traced"]]
    if traced_rounds:
        counts = [{m: r["layers"][m] for m in COUNT_METRICS} for r in traced_rounds]
        known = entry.setdefault("counts", counts[0])
        for c in counts:
            differ = mismatches(known, c)
            if differ:
                correct = False
                print(f"per-layer counts do not repeat: {sorted(differ)}", file=sys.stderr)
    save_ledger(ledger)

    def median(rs, key):
        return statistics.median(r[key] for r in rs)

    if args.trace:
        # Counts repeat exactly (checked above); times are medians.
        values = {m: v if m in COUNT_METRICS else
                  statistics.median(r["layers"][m] for r in traced_rounds)
                  for m, v in traced_rounds[0]["layers"].items()}
        values["trace.run_s"] = median(traced_rounds, "run_s")
        values["trace.overhead_pct"] = 100.0 * (values["trace.run_s"]
                                                / median(untraced_rounds, "run_s") - 1.0)
        wanted = spec["per_layer"]
    else:
        values = {key: median(untraced_rounds, key)
                  for key in ("run_s", "setup_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    detail = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"args": vars(args), "rounds": rounds}, indent=1))
    print("env: " + json.dumps(env_info, sort_keys=True))
    print("digests: " + json.dumps(reference, sort_keys=True))
    print(f"rounds: {len(rounds)}, details in {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
