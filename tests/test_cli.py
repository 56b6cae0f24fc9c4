import csv
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksym.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VIOLATED,
    ConfigError,
    emit_plot_data,
    load_config,
    main,
    parse_config,
)

BASE = {
    "dgp": {"kind": "iid_gaussian", "n": 16, "p": 3},
    "scheme": {"b": 4},
    "multiplier": {"kind": "rademacher"},
    "psi": {"kind": "power", "q": 2.0},
    "truncation": {"mode": "fixed", "U": 2.0},
    "r": 2.0,
    "reps": 1000,
    "rho_reps": 1000,
    "seed": 11,
    "checks": ["rho-only"],
}


def write_config(tmp_path, **overrides):
    obj = json.loads(json.dumps(BASE))
    obj.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path, obj


class TestConfigValidation:
    def test_valid_config_parses(self):
        cfg = parse_config(BASE)
        assert cfg.dgp.n == 16
        assert cfg.b == 4

    def test_block_size_must_divide(self):
        obj = dict(BASE, scheme={"b": 3})
        with pytest.raises(ConfigError) as err:
            parse_config(obj)
        assert any(path == "scheme.b" for path, _ in err.value.problems)

    def test_prop1_needs_bounded_kind(self):
        obj = dict(BASE, checks=["prop1"])
        with pytest.raises(ConfigError) as err:
            parse_config(obj)
        assert any("bounded" in msg for _, msg in err.value.problems)

    def test_errors_are_exhaustive(self):
        obj = dict(BASE, scheme={"b": 3}, r=0.5, checks=["prop9"])
        with pytest.raises(ConfigError) as err:
            parse_config(obj)
        paths = {path for path, _ in err.value.problems}
        assert {"scheme.b", "r", "checks[0]"} <= paths

    def test_theorem1_needs_power_gauge(self):
        obj = dict(BASE, psi={"kind": "exponential", "a": 1.0, "b": 1.0},
                   checks=["theorem1"])
        with pytest.raises(ConfigError) as err:
            parse_config(obj)
        assert any(path == "psi.kind" for path, _ in err.value.problems)

    def test_subexp_needs_p_above_e(self):
        obj = dict(BASE)
        obj["dgp"] = {"kind": "iid_gaussian", "n": 16, "p": 2}
        obj["checks"] = ["theorem1"]
        obj["tail"] = {"mode": "subexp"}
        with pytest.raises(ConfigError) as err:
            parse_config(obj)
        assert any(path == "dgp.p" for path, _ in err.value.problems)

    def test_validate_subcommand(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["validate", str(path)]) == EXIT_OK
        bad, _ = write_config(tmp_path, scheme={"b": 3})
        assert main(["validate", str(bad)]) == EXIT_ERROR
        assert "scheme.b" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


def with_fields(**fields):
    """BASE with dotted-path fields replaced, e.g. with_fields(**{"dgp.n": 1})."""
    obj = json.loads(json.dumps(BASE))
    for path, value in fields.items():
        *parents, leaf = path.split(".")
        node = obj
        for key in parents:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[leaf] = value
    return obj


NAN = float("nan")

# Configs that once crashed with a traceback, passed validation with a
# non-finite value, or were reported under the wrong field.
PROBES = {
    "top-level-array": ([BASE], "<root>"),
    "truncation-not-object": (with_fields(truncation=3), "truncation"),
    "tail-not-object": (with_fields(tail="lq"), "tail"),
    "dgp-not-object": (with_fields(dgp=[16, 3]), "dgp"),
    "psi-not-object": (with_fields(psi="power"), "psi"),
    "multiplier-not-object": (with_fields(multiplier="rademacher"), "multiplier"),
    "gaussian-model-not-object": (with_fields(gaussian_model="mc"), "gaussian_model"),
    "r-nan": (with_fields(r=NAN), "r"),
    "n-fractional": (with_fields(**{"dgp.n": 32.5}), "dgp.n"),
    "reps-fractional": (with_fields(reps=1000.7), "reps"),
    "scale-nan": (with_fields(dgp={"kind": "bounded_rademacher", "n": 16, "p": 3,
                                   "scale": NAN}), "dgp.scale"),
    "U-nan": (with_fields(**{"truncation.U": NAN}), "truncation.U"),
    "q-infinite": (with_fields(**{"psi.q": float("inf")}), "psi.q"),
    "model-reps-small": (with_fields(gaussian_model={"method": "mc", "reps": 10}),
                         "gaussian_model.reps"),
    "coeff-nan": (with_fields(dgp={"kind": "linear_process", "n": 16, "p": 3,
                                   "coeffs": [1.0, NAN]}), "dgp.coeffs[1]"),
    "output-dir-number": (with_fields(output_dir=5), "output_dir"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_rejected_config_names_field(tmp_path, capsys, command, probe):
    obj, path = PROBES[probe]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(obj))
    argv = [command, str(config)]
    if command == "run":
        argv += ["--output-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_ERROR
    lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith(f"{path}: ") for line in lines), lines


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
FUZZ_PATHS = [
    "dgp", "dgp.kind", "dgp.n", "dgp.p", "dgp.phi", "dgp.coeffs", "dgp.cross_corr",
    "scheme", "scheme.b", "multiplier", "multiplier.kind", "psi", "psi.kind", "psi.q",
    "truncation", "truncation.mode", "truncation.U", "truncation.phi", "r", "reps",
    "rho_reps", "seed", "checks", "gaussian_model", "gaussian_model.method",
    "gaussian_model.reps", "tail", "tail.mode", "tail.gamma", "debug", "output_dir",
]


@settings(max_examples=300, deadline=None)
@given(fields=st.dictionaries(st.sampled_from(FUZZ_PATHS), json_values,
                              min_size=1, max_size=3))
def test_parse_config_raises_only_config_error(fields):
    try:
        cfg = parse_config(with_fields(**fields))
    except ConfigError:
        return
    # An accepted config builds its block scheme and serializes to strict JSON.
    cfg.scheme()
    json.dumps(cfg.to_json_dict(), allow_nan=False)


class TestRun:
    def test_rho_only_writes_reports(self, tmp_path):
        path, _ = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        code = main(["run", str(path)])
        assert code == EXIT_OK
        out = tmp_path / "out"
        report = json.loads((out / "rho-only.json").read_text())
        assert report["schema_version"] == 1
        assert set(report["rho"]) == {"rho", "rho_star", "rho_direct", "reps", "se"}
        assert "cdf_grid" in report["diagnostics"]
        assert (out / "summary.csv").exists()
        assert (out / "run_meta.json").exists()

    def test_reports_byte_identical_across_worker_env(self, tmp_path, monkeypatch):
        path, _ = write_config(
            tmp_path, checks=["rho-only", "prop2", "independence-reduction"]
        )
        monkeypatch.setenv("BLOCKSYM_WORKERS", "1")
        main(["run", str(path), "--output-dir", str(tmp_path / "w1")])
        monkeypatch.setenv("BLOCKSYM_WORKERS", "8")
        main(["run", str(path), "--output-dir", str(tmp_path / "w8")])
        for name in ("rho-only.json", "prop2.json", "independence-reduction.json",
                     "summary.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == \
                (tmp_path / "w8" / name).read_bytes()

    def test_exit_code_flags_violation(self, tmp_path):
        # Zeroed remainder on strongly dependent data with singleton blocks:
        # the raw symmetrization inequality fails, so the run must exit 1.
        path, _ = write_config(
            tmp_path,
            dgp={"kind": "truncated_var1", "n": 64, "p": 5, "phi": 0.9,
                 "truncation": 3.0},
            scheme={"b": 1},
            truncation={"mode": "fixed", "U": 3.0},
            checks=["prop1"],
            debug={"zero_remainder": True},
            reps=2000,
            rho_reps=2000,
        )
        assert main(["run", str(path), "--output-dir", str(tmp_path / "v")]) \
            == EXIT_VIOLATED
        report = json.loads((tmp_path / "v" / "prop1.json").read_text())
        verdicts = {m["name"]: m["verdict"] for m in report["margins"]}
        assert verdicts["symmetrization"] == "violated"

    def test_summary_columns(self, tmp_path):
        path, _ = write_config(tmp_path, checks=["prop2"])
        main(["run", str(path), "--output-dir", str(tmp_path / "s")])
        with open(tmp_path / "s" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["check", "lhs", "lhs_se", "rhs", "rhs_se",
                                 "remainder", "margin", "verdict", "seed",
                                 "n", "p", "b", "q", "r", "U"]
        assert rows[0]["check"] == "prop2.symmetrization"

    def test_partial_report_on_runtime_failure(self, tmp_path):
        # Optimal truncation requires estimating rho first; an exceedance
        # amplitude of zero is caught at fit time inside theorem1.
        path, _ = write_config(
            tmp_path,
            checks=["theorem1"],
            tail={"mode": "subexp", "a": 1e-9, "fit": True},
        )
        code = main(["run", str(path), "--output-dir", str(tmp_path / "p")])
        assert code == EXIT_ERROR
        partial = json.loads((tmp_path / "p" / "partial.json").read_text())
        assert partial["partial"] is True

    def test_optimal_truncation_recorded(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            dgp={"kind": "var1", "n": 32, "p": 4, "phi": 0.5},
            scheme={"b": 4},
            truncation={"mode": "optimal", "phi": 0.5},
            checks=["prop2"],
        )
        assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "prop2.json").read_text())
        assert report["diagnostics"]["truncation"]["mode"] == "optimal"
        assert report["diagnostics"]["truncation"]["U"] > 0


class TestPlots:
    def make_reports(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            dgp={"kind": "var1", "n": 32, "p": 4, "phi": 0.5},
            scheme={"b": 4},
            checks=["rho-only", "prop2", "theorem1"],
            tail={"mode": "subexp", "gamma": 1.0, "phi": 0.5},
        )
        out = tmp_path / "runs"
        assert main(["run", str(path), "--output-dir", str(out)]) == EXIT_OK
        return out

    def test_cdf_overlay(self, tmp_path):
        out = self.make_reports(tmp_path)
        dest = tmp_path / "overlay.csv"
        emit_plot_data("cdf-overlay", [out / "rho-only.json"], dest)
        with open(dest) as fh:
            rows = list(csv.DictReader(fh))
        series = {r["series"] for r in rows}
        assert series == {"plain", "multiplier", "gaussian"}

    def test_remainder_grid_monotonicity(self, tmp_path):
        out = self.make_reports(tmp_path)
        dest = tmp_path / "rem.csv"
        emit_plot_data("remainder-vs-U", [out / "theorem1.json"], dest)
        with open(dest) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 100
        r1 = [float(r["y"]) for r in rows if r["series"] == "R1"]
        r2 = [float(r["y"]) for r in rows if r["series"] == "R2"]
        assert all(x <= y + 1e-12 for x, y in zip(r1, r1[1:]))
        assert all(x >= y - 1e-12 for x, y in zip(r2, r2[1:]))

    def test_bound_vs_p_monotone(self, tmp_path):
        out = self.make_reports(tmp_path)
        dest = tmp_path / "bp.csv"
        emit_plot_data("bound-vs-p", [out / "theorem1.json"], dest)
        with open(dest) as fh:
            rows = list(csv.DictReader(fh))
        ys = [float(r["y"]) for r in rows]
        xs = [float(r["x"]) for r in rows]
        assert xs == sorted(xs)
        assert all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))

    def test_remainder_grid_from_lq_theorem_report(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            dgp={"kind": "var1", "n": 32, "p": 4, "phi": 0.5},
            scheme={"b": 4},
            checks=["theorem1"],
            tail={"mode": "lq"},
        )
        out = tmp_path / "lq"
        assert main(["run", str(path), "--output-dir", str(out)]) == EXIT_OK
        dest = tmp_path / "rem_lq.csv"
        emit_plot_data("remainder-vs-U", [out / "theorem1.json"], dest)
        with open(dest) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100

    def test_missing_inputs_rejected(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "solo"
        main(["run", str(path), "--output-dir", str(out)])
        with pytest.raises(ValueError, match="remainder_inputs"):
            emit_plot_data("remainder-vs-U", [out / "rho-only.json"], tmp_path / "x.csv")


def test_cli_entry_point_help():
    with pytest.raises(SystemExit):
        main(["--help"])
