import contextlib
import csv
import importlib.util
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksym import blocking, processes, verify
from blocksym.seeding import PURPOSE_DEFAULT, PURPOSE_NORM, PURPOSE_TAIL
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

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

BASE = {
    "dgp": {"kind": "iid_gaussian", "n": 16, "p": 3},
    "scheme": {"b": 4},
    "multiplier": {"kind": "rademacher"},
    "psi": {"kind": "power", "q": 2.0},
    "r": 2.0,
    "reps": 1000,
    "rho_reps": 1000,
    "seed": 11,
    "checks": ["rho-only"],
}
# The truncation of the checks that read one (prop1, prop2, theorem1).
FIXED = {"mode": "fixed", "U": 2.0}


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
        assert (cfg.scheme.n, cfg.scheme.b, cfg.scheme.count) == (16, 4, 4)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_bounds_parse(self, seed):
        assert parse_config(dict(BASE, seed=seed)).seed == seed

    def test_integer_r_parses_as_a_float(self):
        r = parse_config(dict(BASE, r=3)).r
        assert r == 3.0 and isinstance(r, float)

    def test_block_size_must_divide(self):
        obj = dict(BASE, scheme={"b": 3})
        with pytest.raises(ConfigError) as err:
            parse_config(obj)
        assert any(path == "scheme.b" for path, _ in err.value.problems)

    def test_independence_fallback_is_the_verifier_request(self, monkeypatch):
        # With independence-reduction the only check, validate accepts one
        # block length and one multiplier law: those of the pass that the
        # verifier draws, whose block length the report gives as b.
        draw = verify.stream_statistics
        drawn = []

        def record(*args, **kwargs):
            drawn.append(draw(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(verify, "stream_statistics", record)
        accepted = []
        for b in (1, 2, 4, 8, 16):
            for kind in blocking.MULTIPLIER_KINDS:
                obj = dict(BASE, checks=["independence-reduction"], scheme={"b": b},
                           multiplier={"kind": kind})
                with contextlib.suppress(ConfigError):
                    accepted.append(parse_config(obj))
        (config,) = accepted
        report = verify.verify_independence_reduction(config.dgp, config.psi, config.reps,
                                                      config.seed)
        assert (config.scheme, config.multiplier) == (drawn[0].scheme, drawn[0].mult)
        assert report.params["b"] == drawn[0].scheme.b

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

    def test_prop1_accepts_bounded_dependent_panels(self):
        # Rademacher innovations bound the filtered panel by sum |a_j|;
        # Gaussian innovations leave it unbounded.
        dgp = {"kind": "linear_process", "n": 16, "p": 3, "coeffs": [1.0, -0.5],
               "innovation": "rademacher"}
        cfg = parse_config(dict(BASE, dgp=dgp, checks=["prop1"], truncation=FIXED))
        assert cfg.dgp.support_bound == 1.5
        with pytest.raises(ConfigError) as err:
            parse_config(dict(BASE, dgp=dict(dgp, innovation="gaussian"), checks=["prop1"],
                              truncation=FIXED))
        assert any("bounded" in msg for _, msg in err.value.problems)

    @pytest.mark.parametrize("name", ["full_suite", "independence", "high_dim",
                                      "high_dim_1e4"])
    def test_bundled_configs_validate(self, name, capsys):
        path = SCRIPTS / f"{name}.json"
        assert main(["validate", str(path)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_model_reps_points_to_reps(self):
        # The clipped autoregression has no closed-form covariance, so its
        # model is estimated by Monte Carlo, from the tail pass of reps
        # replications; gaussian_model.reps is no longer read.
        dgp = {"kind": "truncated_var1", "n": 16, "p": 3, "phi": 0.5}
        assert parse_config(dict(BASE, dgp=dgp)).gaussian_model.method is None
        for model in ({"reps": 5000}, {"method": "mc", "reps": 5000}):
            with pytest.raises(ConfigError) as err:
                parse_config(dict(BASE, dgp=dgp, gaussian_model=model))
            assert err.value.problems == [
                ("gaussian_model.reps", "no longer read; the mc model reads the tail pass of "
                                        "reps replications")]

    def test_fields_the_kind_reads_parse(self):
        # Every kind reads (and checks) cross_corr; subexp mode reads the
        # amplitude a whether or not b is fitted.
        assert parse_config(with_fields(**{"dgp.cross_corr": 0.0})).dgp.cross_corr == 0.0
        tail = parse_config(with_fields(checks=["theorem1"], truncation=FIXED,
                                        tail={"mode": "subexp", "a": 3.0, "fit": True})).tail
        assert (tail.a, tail.gamma, tail.phi, tail.fit) == (3.0, 1.0, 0.5, True)
        assert tail.to_json_dict() == {"mode": "subexp", "gamma": 1.0, "phi": 0.5, "a": 3.0}

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


def truncated(**fields):
    """``with_fields`` on BASE with a prop2 check, which reads ``FIXED``."""
    return with_fields(**{"checks": ["prop2"], "truncation": dict(FIXED), **fields})


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
    "truncation-not-object": (truncated(truncation=3), "truncation"),
    "tail-not-object": (with_fields(tail="lq"), "tail"),
    "dgp-not-object": (with_fields(dgp=[16, 3]), "dgp"),
    "psi-not-object": (with_fields(psi="power"), "psi"),
    "multiplier-not-object": (with_fields(multiplier="rademacher"), "multiplier"),
    "gaussian-model-not-object": (with_fields(gaussian_model="mc"), "gaussian_model"),
    "r-nan": (with_fields(r=NAN), "r"),
    # A string or boolean r once passed through float() into the run.
    "r-string-nan": (with_fields(r="nan"), "r"),
    "r-string": (with_fields(r="2.5"), "r"),
    "r-boolean": (with_fields(r=True), "r"),
    "r-huge-integer": (with_fields(r=10**400), "r"),
    # Keys are mixed modulo 2**64, so these would draw the panels of 2**64 - 1 and 5.
    "seed-negative": (with_fields(seed=-1), "seed"),
    "seed-above-64-bits": (with_fields(seed=2**64 + 5), "seed"),
    "n-fractional": (with_fields(**{"dgp.n": 32.5}), "dgp.n"),
    "reps-fractional": (with_fields(reps=1000.7), "reps"),
    "scale-nan": (with_fields(dgp={"kind": "bounded_rademacher", "n": 16, "p": 3,
                                   "scale": NAN}), "dgp.scale"),
    "U-nan": (truncated(**{"truncation.U": NAN}), "truncation.U"),
    "q-infinite": (with_fields(**{"psi.q": float("inf")}), "psi.q"),
    "model-reps-mc": (with_fields(gaussian_model={"method": "mc", "reps": 10_000}),
                      "gaussian_model.reps"),
    "model-reps-small": (with_fields(gaussian_model={"method": "mc", "reps": 10}),
                         "gaussian_model.reps"),
    "mc-model-reps-small": (with_fields(dgp={"kind": "truncated_var1", "n": 16, "p": 3,
                                             "phi": 0.5}, reps=999), "reps"),
    # A check listed twice would run once but be echoed twice.
    "check-repeated": (with_fields(dgp={"kind": "bounded_rademacher", "n": 16, "p": 3},
                                   checks=["prop1", "prop1"], truncation=FIXED), "checks[1]"),
    "coeff-nan": (with_fields(dgp={"kind": "linear_process", "n": 16, "p": 3,
                                   "coeffs": [1.0, NAN]}), "dgp.coeffs[1]"),
    "output-dir-number": (with_fields(output_dir=5), "output_dir"),
    "U-below-linear-support": (
        with_fields(dgp={"kind": "linear_process", "n": 16, "p": 3, "coeffs": [1.0, 0.5],
                         "innovation": "rademacher"},
                    checks=["prop1"], truncation={"mode": "fixed", "U": 1.0}), "truncation.U"),
    "U-below-sign-scale": (
        with_fields(dgp={"kind": "bounded_rademacher", "n": 16, "p": 3, "scale": 2.0},
                    checks=["prop1"], truncation={"mode": "fixed", "U": 1}), "truncation.U"),
    "U-boolean": (truncated(**{"truncation.U": True}), "truncation.U"),
    "truncation-phi-boolean": (truncated(truncation={"mode": "optimal", "phi": True}),
                               "truncation.phi"),
    **{f"tail-{name}": (with_fields(checks=["theorem1"], tail=dict(mode="subexp", **tail)), path)
       for name, tail, path in [
           ("gamma-string", {"gamma": "x"}, "tail.gamma"),
           ("gamma-zero", {"gamma": 0}, "tail.gamma"),
           ("a-negative", {"a": -1}, "tail.a"),
           ("phi-above-gamma", {"gamma": 1, "phi": 2}, "tail.phi"),
           ("fit-false-without-b", {"fit": False, "a": 2.0}, "tail.fit"),
       ]},
    "dgp-phi-string": (with_fields(**{"dgp.kind": "var1", "dgp.phi": "x"}), "dgp.phi"),
    "dgp-coeffs-number": (with_fields(**{"dgp.kind": "linear_process", "dgp.coeffs": 5}),
                          "dgp.coeffs"),
    "dgp-kind-missing": (with_fields(dgp={"n": 16, "p": 3}), "dgp.kind"),
    "dgp-unknown-field": (with_fields(**{"dgp.x": 1}), "dgp.x"),
    "psi-q-string": (with_fields(**{"psi.q": "x"}), "psi.q"),
    "psi-q-boolean": (with_fields(**{"psi.q": True}), "psi.q"),
    "psi-kind-missing": (with_fields(psi={"q": 2.0}), "psi.kind"),
    "multiplier-kind-missing": (with_fields(multiplier={}), "multiplier.kind"),
    "multiplier-unknown-field": (with_fields(**{"multiplier.x": 1}), "multiplier.x"),
    "debug": (with_fields(debug={"zero_remainder": True}), "debug"),
    "rho-rep-unknown": (with_fields(rho_rep=5000), "rho_rep"),
    "scheme-bb-unknown": (with_fields(**{"scheme.bb": 4}), "scheme.bb"),
    "truncation-u-unknown": (truncated(**{"truncation.u": 2.0}), "truncation.u"),
    "tail-gama-unknown": (with_fields(tail={"mode": "lq", "gama": 1.0}), "tail.gama"),
    "gaussian-model-x-unknown": (with_fields(**{"gaussian_model.x": 1}), "gaussian_model.x"),
    "optimal-truncation-exponential-gauge": (
        with_fields(psi={"kind": "exponential", "a": 1.0, "b": 1.0},
                    truncation={"mode": "optimal", "phi": 0.5}, checks=["prop2"]), "psi.kind"),
    "scheme-n-not-dgp-n": (with_fields(**{"scheme.n": 8}), "scheme.n"),
    # Keys that the chosen mode never reads.
    "truncation-phi-fixed": (truncated(**{"truncation.phi": 0.5}), "truncation.phi"),
    "truncation-U-optimal": (truncated(truncation={"mode": "optimal", "phi": 0.5, "U": 2.0}),
                             "truncation.U"),
    **{f"tail-{key}-lq": (with_fields(checks=["theorem1"], tail={"mode": "lq", key: value}),
                          f"tail.{key}")
       for key, value in [("gamma", 1.0), ("phi", 0.5), ("a", 2.0), ("b", 1.0), ("fit", True)]},
    "tail-b-fit-true": (with_fields(checks=["theorem1"], tail={"mode": "subexp", "b": 1.0}),
                        "tail.b"),
    "model-reps-analytic": (with_fields(gaussian_model={"method": "analytic", "reps": 5000}),
                            "gaussian_model.reps"),
    # Keys of sections that no chosen check reads.
    "tail-gamma-no-theorem1": (with_fields(tail={"mode": "subexp", "gamma": 2.0}), "tail.gamma"),
    **{f"truncation-{key}-no-check": (with_fields(truncation=dict(FIXED, phi=0.5)),
                                      f"truncation.{key}")
       for key in ("mode", "U", "phi")},
    "model-method-no-rho": (with_fields(checks=["independence-reduction"],
                                        gaussian_model={"method": "mc"}),
                            "gaussian_model.method"),
    "model-reps-closed-form": (with_fields(gaussian_model={"reps": 5000}),
                               "gaussian_model.reps"),
    # theorem1's lq tail bound needs p >= 2: a run drew four passes, then
    # stopped with VacuousBoundError.
    "theorem1-p1": ({"dgp": {"kind": "iid_gaussian", "n": 8, "p": 1}, "scheme": {"b": 2},
                     "psi": {"kind": "power", "q": 2.0}, "truncation": FIXED, "reps": 1000,
                     "seed": 3, "checks": ["theorem1"]}, "dgp.p"),
    # A run would stop at the model with LongRunCovError.
    "model-analytic-no-closed-form": (
        with_fields(dgp={"kind": "truncated_var1", "n": 16, "p": 3, "phi": 0.5},
                    gaussian_model={"method": "analytic"}), "gaussian_model.method"),
    # Spec fields that the kind never reads, which the echo once dropped.
    "dgp-phi-iid": (with_fields(**{"dgp.phi": 0.9}), "dgp.phi"),
    "dgp-scale-truncated-var1": (
        with_fields(dgp={"kind": "truncated_var1", "n": 16, "p": 3, "phi": 0.5, "scale": 5}),
        "dgp.scale"),
    "psi-a-power": (with_fields(**{"psi.a": 5}), "psi.a"),
    # independence-reduction alone sums singleton blocks of Rademacher signs.
    "independence-uniform-multiplier": (
        with_fields(checks=["independence-reduction"], multiplier={"kind": "uniform_sym"},
                    **{"scheme.b": 1}), "multiplier.kind"),
    "independence-b4": (with_fields(checks=["independence-reduction"]), "scheme.b"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_rejected_config_names_field(tmp_path, capsys, monkeypatch, command, probe):
    # A rejected config draws nothing: no pass keys its panels.
    keyed = []
    monkeypatch.setattr(blocking, "substream_keys", lambda *args: keyed.append(args))
    obj, path = PROBES[probe]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(obj))
    argv = [command, str(config)]
    if command == "run":
        argv += ["--output-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_ERROR
    lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith(f"{path}: ") for line in lines), lines
    assert keyed == []


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
FUZZ_PATHS = [
    "dgp", "dgp.kind", "dgp.n", "dgp.p", "dgp.phi", "dgp.coeffs", "dgp.cross_corr",
    "dgp.scale", "dgp.innovation", "scheme", "scheme.b", "scheme.n", "multiplier",
    "multiplier.kind", "psi", "psi.kind", "psi.q", "psi.a", "truncation", "truncation.mode",
    "truncation.U", "truncation.phi", "r", "reps", "rho_reps", "seed", "checks",
    "gaussian_model", "gaussian_model.method", "gaussian_model.reps", "tail", "tail.mode",
    "tail.gamma", "tail.fit", "tail.a", "tail.b", "debug", "output_dir",
]


@settings(max_examples=300, deadline=None)
@given(fields=st.dictionaries(st.sampled_from(FUZZ_PATHS), json_values,
                              min_size=1, max_size=3))
def test_parse_config_raises_only_config_error(fields):
    try:
        cfg = parse_config(with_fields(**fields))
    except ConfigError:
        return
    # An accepted config holds a partition of its sample and serializes to strict JSON.
    assert cfg.scheme.n == cfg.dgp.n and cfg.scheme.count * cfg.scheme.b == cfg.dgp.n
    json.dumps(cfg.to_json_dict(), allow_nan=False)


class TestRun:
    def test_config_echo_parses_again(self, tmp_path):
        path, _ = write_config(
            tmp_path, dgp={"kind": "var1", "n": 16, "p": 3, "phi": 0.5},
            checks=["rho-only", "theorem1"], truncation=FIXED,
            gaussian_model={"method": "mc"},
            tail={"mode": "subexp", "gamma": 1.0, "phi": 0.5, "a": 2.0},
            output_dir=str(tmp_path / "out"))
        config = load_config(path)
        assert main(["run", str(path)]) == EXIT_OK
        echo = json.loads((tmp_path / "out" / "rho-only.json").read_text())["config"]
        assert echo["scheme"] == {"n": 16, "b": 4}
        assert echo["truncation"] == FIXED
        assert parse_config(echo) == config

    def test_echo_without_truncation_check_parses_again(self, tmp_path):
        # No chosen check reads a truncation, so the echo leaves the default out.
        path, _ = write_config(tmp_path, checks=["rho-only", "independence-reduction"],
                               output_dir=str(tmp_path / "out"))
        config = load_config(path)
        assert main(["run", str(path)]) == EXIT_OK
        echo = json.loads((tmp_path / "out" / "rho-only.json").read_text())["config"]
        assert "truncation" not in echo
        assert parse_config(echo) == config

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
        # Blocks of 100 replications, so with two CPUs every chunk is drawn
        # on the pool; run_meta records the count and the reports ignore it.
        path, _ = write_config(
            tmp_path, checks=["rho-only", "prop2", "independence-reduction"],
            truncation=FIXED)
        monkeypatch.setattr(processes, "_BLOCK_BYTES", 100 * 16 * 3 * 8)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            out = tmp_path / f"w{len(cpus)}"
            main(["run", str(path), "--output-dir", str(out)])
            meta = json.loads((out / "run_meta.json").read_text())
            assert meta["draw_workers"] == len(cpus)
            # Each pass's blocks, summed over the threads that ran them, fit
            # in draw_workers threads busy for the whole pass.
            for record in meta["panel_streams"]["passes"]:
                assert 0 < record["block_seconds"] <= len(cpus) * record["seconds"]
        for name in ("rho-only.json", "prop2.json", "independence-reduction.json",
                     "summary.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == \
                (tmp_path / "w2" / name).read_bytes()

    def test_prop1_runs_on_dependent_sign_panels(self, tmp_path):
        dgp = {"kind": "linear_process", "n": 16, "p": 3, "coeffs": [1.0, 0.5],
               "innovation": "rademacher"}
        out = tmp_path / "out"
        path, _ = write_config(tmp_path, dgp=dgp, checks=["rho-only", "prop1"],
                               truncation=FIXED, output_dir=str(out))
        assert main(["run", str(path)]) == EXIT_OK
        report = json.loads((out / "prop1.json").read_text())
        assert [m["verdict"] for m in report["margins"]] == ["holds", "holds"]

    def test_run_meta_records_slack(self, tmp_path, capsys):
        # run_meta.json and each stdout verdict line carry (lhs - rhs) /
        # remainder of every margin, null where the remainder is 0; the
        # reports do not carry it.
        out = tmp_path / "out"
        checks = ["prop2", "theorem1", "independence-reduction"]
        path, _ = write_config(tmp_path, checks=checks, truncation=FIXED,
                               output_dir=str(out))
        assert main(["run", str(path)]) == EXIT_OK
        slack = json.loads((out / "run_meta.json").read_text())["slack"]
        want = {}
        for check in checks:
            report = json.loads((out / f"{check}.json").read_text())
            for m in report["margins"]:
                assert "slack" not in m
                want[f"{check}.{m['name']}"] = (
                    None if m["remainder"] == 0 else (m["lhs"] - m["rhs"]) / m["remainder"])
        assert slack == want
        assert [key for key, value in want.items() if value is not None] == \
            ["prop2.symmetrization", "prop2.desymmetrization", "theorem1.moment-bound"]
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(want)
        for line, (key, value) in zip(lines, want.items()):
            assert line.startswith(f"{key}: ")
            assert line.endswith(f"slack={'null' if value is None else f'{value:.6g}'})")

    def test_exit_code_flags_violation(self, tmp_path, monkeypatch):
        # Zeroed remainder on strongly dependent data with singleton blocks:
        # the raw symmetrization inequality fails, so the run must exit 1.
        monkeypatch.setattr(verify, "remainder_Rn", lambda *args: 0.0)
        path, _ = write_config(
            tmp_path,
            dgp={"kind": "truncated_var1", "n": 64, "p": 5, "phi": 0.9,
                 "truncation": 3.0},
            scheme={"b": 1},
            truncation={"mode": "fixed", "U": 3.0},
            checks=["prop1"],
            reps=2000,
            rho_reps=2000,
        )
        assert main(["run", str(path), "--output-dir", str(tmp_path / "v")]) \
            == EXIT_VIOLATED
        report = json.loads((tmp_path / "v" / "prop1.json").read_text())
        verdicts = {m["name"]: m["verdict"] for m in report["margins"]}
        assert verdicts["symmetrization"] == "violated"

    def test_summary_columns(self, tmp_path):
        path, _ = write_config(tmp_path, checks=["prop2"], truncation=FIXED)
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
            truncation=FIXED,
            tail={"mode": "subexp", "a": 1e-9, "fit": True},
        )
        code = main(["run", str(path), "--output-dir", str(tmp_path / "p")])
        assert code == EXIT_ERROR
        partial = json.loads((tmp_path / "p" / "partial.json").read_text())
        assert partial["partial"] is True

    def test_non_finite_remainder_stops_the_run(self, tmp_path):
        # R_n = rho_sum * expm1(U**2) overflows at U = 30, which validate
        # cannot see. The run stops with an error naming the margin, where
        # it once gave margins of -inf and wrote Infinity into prop1.json.
        path, _ = write_config(
            tmp_path,
            dgp={"kind": "bounded_rademacher", "n": 16, "p": 3},
            psi={"kind": "exponential", "a": 1.0, "b": 2.0},
            truncation={"mode": "fixed", "U": 30.0},
            checks=["prop1"],
            seed=1,
        )
        out = tmp_path / "inf"
        assert main(["run", str(path), "--output-dir", str(out)]) == EXIT_ERROR
        partial = json.loads((out / "partial.json").read_text())
        assert partial["error"].startswith(
            "NonFiniteGaugeError: the remainder of the symmetrization margin is inf")
        assert not (out / "prop1.json").exists()

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

    def test_optimal_truncation_below_support_stops_before_its_passes(self, tmp_path):
        # U* reads rho and the marginal norm, so validate cannot see that it
        # lies below the support bound 3.0; the run stops once U* resolves,
        # after the marginal, model-tail and rho passes and before the
        # second tail pass and the mid pass.
        path, _ = write_config(
            tmp_path,
            dgp={"kind": "truncated_var1", "n": 16, "p": 3, "phi": 0.5, "truncation": 3.0},
            truncation={"mode": "optimal", "phi": 0.5},
            checks=["rho-only", "prop1", "prop2", "theorem1"],
        )
        out = tmp_path / "u"
        assert main(["run", str(path), "--output-dir", str(out)]) == EXIT_ERROR
        partial = json.loads((out / "partial.json").read_text())
        assert partial["error"].startswith(
            "ValueError: panel support bound 3.0 exceeds truncation level")
        passes = json.loads((out / "run_meta.json").read_text())["panel_streams"]
        assert passes["drawn"] == 3
        assert ([p["purpose"] for p in passes["passes"]]
                == [PURPOSE_NORM, PURPOSE_TAIL, PURPOSE_DEFAULT])


class TestPlots:
    def make_reports(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            dgp={"kind": "var1", "n": 32, "p": 4, "phi": 0.5},
            scheme={"b": 4},
            checks=["rho-only", "prop2", "theorem1"],
            truncation=FIXED,
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
            truncation=FIXED,
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


def load_digest_script():
    """scripts/report_digests.py as a module."""
    spec = importlib.util.spec_from_file_location("report_digests",
                                                  SCRIPTS / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_check_names_each_mismatch(tmp_path, capsys, monkeypatch):
    script = load_digest_script()
    printed = {"a x.json": "1", "a y.json": "2", "b z.csv": "3", "d v.csv": "5"}
    verdicts = {"a": ["prop1.symmetrization holds", "prop1.desymmetrization holds"],
                "b": ["x.two-sided holds-within-noise"], "d": ["y.m holds"]}
    monkeypatch.setattr(script, "report_digests", lambda: (dict(printed), verdicts, 0))
    bench = tmp_path / "BENCH.json"
    bench.write_text(json.dumps({"digests": {"a x.json": "1", "a y.json": "9", "c w.csv": "4",
                                             "d v.csv": "5"}}))
    assert script.main(["--check", str(bench)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["a x.json 1", "a y.json 2", "b z.csv 3", "d v.csv 5"]
    # Each config with a moved report shows its verdicts; d moved nothing.
    assert err.splitlines() == ["mismatch: a y.json: 2 != 9",
                                "mismatch: b z.csv: not in the trajectory file",
                                "mismatch: c w.csv: not written",
                                "verdict: a prop1.symmetrization holds",
                                "verdict: a prop1.desymmetrization holds",
                                "verdict: b x.two-sided holds-within-noise"]
    bench.write_text(json.dumps({"digests": printed}))
    assert script.main(["--check", str(bench)]) == 0


def test_cli_entry_point_help():
    with pytest.raises(SystemExit):
        main(["--help"])
