"""One round of one workload, in a fresh interpreter.

Started by run.py; not meant to be run by hand. Imports blocksym from the
checkout's ``src`` (never from an installed copy), builds the workload's
inputs, times its user-facing calls, checks each call's outputs after it,
outside the timed region and the trace, and prints one JSON object as the
last line of standard output.

``setup_s`` runs from ``--spawned-at`` (the parent's ``perf_counter`` just
before it started this process; both read the system-wide monotonic clock)
to the first timed call. ``peak_rss_mb`` is read right after the last timed
call, before its check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # numpy without dict-mode show_config
        pass
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (import cost belongs to setup_s)
    import scipy.stats  # noqa: F401
    import blocksym
    import blocksym.cli  # noqa: F401  (loads every layer module)

    where = Path(blocksym.__file__).resolve()
    if where.parent != SRC / "blocksym":
        print(f"blocksym imported from {where}, not from {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](ROOT, args.seed, Path(args.work))
    workload.setup()

    run_s = 0.0
    first_call = None
    ops = []
    for names, timed, check in workload.steps():
        started = time.perf_counter()
        first_call = first_call or started
        timed()
        run_s += time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with tracer.paused() if tracer else contextlib.nullcontext():
            try:
                ops += check()
            except Exception as exc:  # noqa: BLE001 - a crashed check fails its operations
                problem = f"check raised {type(exc).__name__}: {exc}"
                ops += [{"name": name, "problems": [problem]} for name in names]

    result = {
        "run_s": run_s,
        "setup_s": first_call - args.spawned_at,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "digests": workload.digests(),
        "env": _environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(workload.bytes_written())
        result["spans"] = tracer.span_table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
