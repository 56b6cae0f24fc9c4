"""Print the sha256 of every report the bundled configs write.

Usage: python scripts/report_digests.py [--check BENCH_<n>.json]

Runs scripts/full_suite.json, scripts/independence.json,
scripts/high_dim.json (p = 1000 >> n = 32) and scripts/high_dim_1e4.json
(the same shape at p = 10^4, about 11 s and 260 MB on a 2-core box) from a
temporary working directory, so each writes under its own ``output_dir``
there, and prints one line per report: ``<config> <file> <sha256>``.
``run_meta.json`` records timings and versions, so it is left out; every
other report is a pure function of its config. Exits with the worst exit
code of the runs.

With ``--check`` the printed digests are compared with the ``digests`` of
that trajectory file, keyed ``"<config> <file>"``. Each report whose digest
differs, or that only one side has, is named on stderr, and the exit code is
1 if any is, unless a run already exited worse. For each config with such a
report, the ``<check>.<margin> <verdict>`` rows of its summary.csv follow on
stderr, so a change that moves digests shows whether every verdict keeps its
band.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Run the package this script sits beside, installed or not.
sys.path.insert(0, str(HERE.parent / "src"))

from blocksym.cli import load_config, run_experiment  # noqa: E402
CONFIGS = ("full_suite", "independence", "high_dim", "high_dim_1e4")


def report_digests() -> tuple[dict, dict, int]:
    """The digest of every report, keyed ``"<config> <file>"``; each config's
    ``<check>.<margin> <verdict>`` rows of summary.csv, keyed by config; and
    the worst exit code."""
    worst = 0
    digests, verdicts = {}, {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name in CONFIGS:
                config = load_config(HERE / f"{name}.json")
                with contextlib.redirect_stdout(io.StringIO()):
                    worst = max(worst, run_experiment(config))
                for path in sorted(Path(config.output_dir).iterdir()):
                    if path.name != "run_meta.json":
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        digests[f"{name} {path.name}"] = digest
                with open(Path(config.output_dir) / "summary.csv", newline="") as fh:
                    verdicts[name] = [f"{row['check']} {row['verdict']}"
                                      for row in csv.DictReader(fh)]
        finally:
            os.chdir(home)
    return digests, verdicts, worst


def mismatches(digests: dict, expected: dict) -> list:
    """One line per report whose digest differs or that one side lacks."""
    lines = []
    for key in sorted(digests.keys() | expected.keys()):
        if key not in expected:
            lines.append(f"{key}: not in the trajectory file")
        elif key not in digests:
            lines.append(f"{key}: not written")
        elif digests[key] != expected[key]:
            lines.append(f"{key}: {digests[key]} != {expected[key]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", metavar="BENCH_JSON",
                        help="compare with the digests of this trajectory file")
    args = parser.parse_args(argv)
    expected = None
    if args.check:
        expected = json.loads(Path(args.check).read_text())["digests"]
    digests, verdicts, worst = report_digests()
    print("\n".join(f"{key} {digest}" for key, digest in digests.items()))
    if expected is not None:
        differ = mismatches(digests, expected)
        for line in differ:
            print(f"mismatch: {line}", file=sys.stderr)
        moved = {line.split(" ", 1)[0] for line in differ}
        for name, rows in verdicts.items():
            if name in moved:
                for row in rows:
                    print(f"verdict: {name} {row}", file=sys.stderr)
        if differ:
            worst = max(worst, 1)
        else:
            print(f"all {len(digests)} digests match {args.check}", file=sys.stderr)
    return worst


if __name__ == "__main__":
    sys.exit(main())
