"""Run the bundled verification configs and emit plot-ready CSVs.

Usage: python scripts/run_full_suite.py [output_root]

Runs the dependent bounded/unbounded chain suite plus the independence
reduction, then derives the three plot datasets from the reports.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Run the package this script sits beside, installed or not.
sys.path.insert(0, str(HERE.parent / "src"))

from blocksym.cli import emit_plot_data, load_config, run_experiment  # noqa: E402


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    worst = 0
    suite_dir = root / "full_suite"
    for name in ("full_suite", "independence"):
        config = load_config(HERE / f"{name}.json")
        out = root / name
        print(f"== {name} -> {out}")
        worst = max(worst, run_experiment(config, output_dir=out))
    emit_plot_data("cdf-overlay", [suite_dir / "rho-only.json"],
                   root / "cdf_overlay.csv")
    emit_plot_data("remainder-vs-U", [suite_dir / "theorem1.json"],
                   root / "remainder_vs_U.csv")
    emit_plot_data("bound-vs-p", [suite_dir / "theorem1.json"],
                   root / "bound_vs_p.csv")
    print(f"plot data written under {root}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
