"""Print the sha256 of every report the bundled configs write.

Usage: python scripts/report_digests.py

Runs scripts/full_suite.json, scripts/independence.json and
scripts/high_dim.json (p = 1000 >> n = 32) from a temporary working
directory, so each writes under its own ``output_dir`` there, and prints one
line per report: ``<config> <file> <sha256>``. ``run_meta.json``
records timings and versions, so it is left out; every other report is a
pure function of its config. Exits with the worst exit code of the runs.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Run the package this script sits beside, installed or not.
sys.path.insert(0, str(HERE.parent / "src"))

from blocksym.cli import load_config, run_experiment  # noqa: E402
CONFIGS = ("full_suite", "independence", "high_dim")


def main() -> int:
    worst = 0
    lines = []
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
                        lines.append(f"{name} {path.name} {digest}")
        finally:
            os.chdir(home)
    print("\n".join(lines))
    return worst


if __name__ == "__main__":
    sys.exit(main())
