"""The three benchmark workloads: inputs, timed calls and output checks.

Each workload has ``setup`` (builds inputs; counted in ``setup_s``) and
``steps``: pairs of a timed user-facing call (summed into ``run_s``) and a
check that runs after it, outside the timed region. A check returns one
entry per operation with the problems found, so a failing check fails only
its own operations. Every check uses a closed form, scipy, or a property
the method must have; none compares against stored numbers.

Statistical checks and their false-alarm probabilities:

- null_calibration: one-sample KS of each of the three samples against the
  exact law (2 Phi(x) - 1)^p, gated at the DKW bound for alpha = 1e-9 per
  test (Massart's constant: P(sup |F_m - F| > eps) <= 2 exp(-2 m eps^2)).
- full_suite: prop1 lhs and rhs, two independent estimates of one
  expectation, agree within 4 propagated SE (about 6.3e-5 per round, normal
  approximation).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import shutil
from pathlib import Path

NULL_REPS = 100_000
NULL_TRIALS = 3
NULL_ALPHA = 1e-9
AGREE_SE = 4.0
EXACT_RTOL = 1e-12
FORMULA_RTOL = 1e-8


def derive_seed(seed: int, *path) -> int:
    """A 32-bit seed that depends only on the workload seed and ``path``."""
    digest = hashlib.sha256(repr((int(seed),) + path).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# full_suite: blocksym.cli run on the bundled scripts/full_suite.json
# ---------------------------------------------------------------------------


class FullSuite:
    def __init__(self, root: Path, seed: int, work: Path):
        self.source = root / "scripts" / "full_suite.json"
        self.seed = derive_seed(seed, "full_suite")
        self.out = work / "out"

    def setup(self):
        from blocksym import cli

        obj = json.loads(self.source.read_text())
        obj["seed"] = self.seed
        obj["output_dir"] = str(self.out)
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        path = self.out.parent / "full_suite.json"
        path.write_text(json.dumps(obj))
        self.op_names = list(obj["checks"])
        self.config = cli.load_config(path)

    def steps(self):
        return [(self.op_names, self._run, self._check)]

    def _run(self):
        from blocksym import cli

        self.code = cli.run_experiment(self.config, output_dir=str(self.out))

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir() if p.name != "run_meta.json")

    def digests(self) -> dict:
        """sha256 of each check's report, keyed by check, and of summary.csv."""
        files = {name: f"{name}.json" for name in self.op_names}
        files["summary.csv"] = "summary.csv"
        return {key: hashlib.sha256((self.out / f).read_bytes()).hexdigest()
                for key, f in files.items() if (self.out / f).exists()}

    def _check(self) -> list:
        import csv

        from scipy.stats import beta

        problems = {name: [] for name in self.op_names}
        reports = {}
        for name in self.op_names:
            path = self.out / f"{name}.json"
            if path.exists():
                reports[name] = json.loads(path.read_text())
            else:
                problems[name].append("report missing")
        if self.code != 0:
            for name in self.op_names:
                problems[name].append(f"exit code {self.code}")
        with open(self.out / "summary.csv", newline="") as fh:
            rows = {row["check"]: row for row in csv.DictReader(fh)}

        for name, rep in reports.items():
            bad = problems[name]
            rho = rep.get("rho")
            if rho is not None:
                for key in ("rho", "rho_star", "rho_direct"):
                    if not 0.0 <= rho[key] <= 1.0:
                        bad.append(f"{key}={rho[key]} outside [0, 1]")
                rho_sum = rep["remainders"].get("rho_sum")
                if rho_sum is not None and not _close(rho_sum, _rho_sum(rep), 1e-12):
                    bad.append("rho_sum != rho + rho_star")
            for m in rep["margins"]:
                bad += _margin_problems(m)
                row = rows.get(f"{name}.{m['name']}")
                if row is None or row["verdict"] != m["verdict"] \
                        or float(row["margin"]) != m["margin"]:
                    bad.append(f"summary.csv row for {m['name']} disagrees with the report")

        if "prop1" in reports:
            rep = reports["prop1"]
            q, U = rep["params"]["q"], rep["params"]["U"]
            rho_sum = _rho_sum(rep)
            if not _close(rep["remainders"]["R_n"], rho_sum * U**q, FORMULA_RTOL):
                problems["prop1"].append("R_n != rho_sum U^q")
            lhs, rhs = rep["lhs"], rep["rhs"]
            se = math.hypot(lhs["se"], rhs["se"])
            if abs(lhs["mean"] - rhs["mean"]) > AGREE_SE * se:
                problems["prop1"].append(
                    f"lhs and rhs differ by {abs(lhs['mean'] - rhs['mean']):.3g} > "
                    f"{AGREE_SE} SE ({se:.3g})")
        if "prop2" in reports:
            rep = reports["prop2"]
            bad = problems["prop2"]
            q, U, r = rep["params"]["q"], rep["params"]["U"], rep["params"]["r"]
            rem = rep["remainders"]
            if not _close(rem["R1"], 2.0 ** (q - 2.0) * _rho_sum(rep) * U**q, FORMULA_RTOL):
                bad.append("R1 != 2^(q-2) rho_sum U^q")
            tail = rep["diagnostics"]["tail"]
            hits, reps = tail["hits"], tail["reps"]
            upper = 1.0 if hits == reps else float(beta.ppf(0.975, hits + 1, reps - hits))
            if not _close(rem["tail_prob_upper"], upper, 1e-9):
                bad.append("tail upper bound is not the Clopper-Pearson 97.5% bound")
            r2 = 0.5 * upper ** ((r - 1.0) / r) * rem["psi_norm"]
            if not _close(rem["R2"], r2, 1e-9):
                bad.append("R2 != 1/2 upper^((r-1)/r) psi_norm")
        if "theorem1" in reports:
            rep = reports["theorem1"]
            bad = problems["theorem1"]
            par, rem = rep["params"], rep["remainders"]
            q, n, p = par["q"], par["n"], par["p"]
            c = 1.0 if self.config.multiplier.kind == "rademacher" else math.sqrt(3.0)
            factor = 2.0 ** (q / 2.0) * c**q * (math.log(2.0 * p) / n) ** (q / 2.0)
            if not _close(rem["hoeffding_factor"], factor, 1e-12):
                bad.append("Hoeffding factor != 2^(q/2) c^q (ln 2p / n)^(q/2)")
            if not _close(rem["R1_quadrature"],
                          2.0 ** (q - 2.0) * _rho_sum(rep) * par["U"] ** q, FORMULA_RTOL):
                bad.append("R1_quadrature != 2^(q-2) rho_sum U^q")
        return [{"name": name, "problems": problems[name]} for name in self.op_names]


def _rho_sum(rep) -> float:
    return rep["rho"]["rho"] + rep["rho"]["rho_star"]


def _margin_problems(m) -> list:
    bad = []
    expected = m["lhs"] - m["rhs"] - m["remainder"]
    scale = max(1.0, abs(m["lhs"]), abs(m["rhs"]), abs(m["remainder"]))
    if not abs(m["margin"] - expected) <= 1e-9 * scale:
        bad.append(f"{m['name']}: margin != lhs - rhs - remainder")
    stat = abs(m["margin"]) if m["two_sided"] else m["margin"]
    band = ("holds" if stat <= 0 else
            "holds-within-noise" if stat <= 3.0 * m["se"] else "violated")
    if m["verdict"] != band:
        bad.append(f"{m['name']}: verdict {m['verdict']} but the three-band rule gives {band}")
    if m["verdict"] == "violated":
        bad.append(f"{m['name']}: violated")
    return bad


# ---------------------------------------------------------------------------
# null_calibration: estimate_rhos on exactly Gaussian panels
# ---------------------------------------------------------------------------


class NullCalibration:
    def __init__(self, root: Path, seed: int, work: Path):
        self.trial_seeds = [derive_seed(seed, "null_calibration", k) for k in range(NULL_TRIALS)]
        self.op_names = [f"trial{k}" for k in range(NULL_TRIALS)]

    def setup(self):
        from blocksym.blocking import MultiplierSpec, make_blocks
        from blocksym.gaussian import estimate_gaussian_model
        from blocksym.processes import DgpSpec

        self.spec = DgpSpec("iid_gaussian", n=16, p=2)
        self.scheme = make_blocks(16, 4)
        self.mult = MultiplierSpec("rademacher")
        self.model = estimate_gaussian_model(self.spec)
        self.rhos = {}
        self._record_samples()

    def _record_samples(self):
        """Keep the samples estimate_rhos draws, so the check sees the same ones.

        Each trial's samples are released by its check, before the next
        trial starts, so they add nothing to the peak resident memory.
        """
        from blocksym import gaussian

        self.samples = {}
        self.samplers = {}
        for name in ("simulate_max_statistics", "sample_gaussian_max"):
            sampler = self.samplers[name] = getattr(gaussian, name)

            def record(*args, _fn=sampler, _name=name, **kwargs):
                self.samples[_name] = out = _fn(*args, **kwargs)
                return out
            setattr(gaussian, name, record)

    def steps(self):
        return [([f"trial{k}"], functools.partial(self._trial, k),
                 functools.partial(self._check, k)) for k in range(NULL_TRIALS)]

    def _trial(self, k):
        from blocksym import gaussian

        self.rhos[k] = gaussian.estimate_rhos(self.spec, self.scheme, self.mult, self.model,
                                              NULL_REPS, self.trial_seeds[k])

    def bytes_written(self) -> int:
        return 0

    def digests(self) -> dict:
        return {f"trial{k}": repr(rho) for k, rho in self.rhos.items()}

    def _check(self, k) -> list:
        from scipy.special import erf
        from scipy.stats import ks_2samp, kstest

        p = self.spec.p

        def exact_cdf(x):
            return erf(x / math.sqrt(2.0)) ** p  # (2 Phi(x) - 1)^p

        seed, rho = self.trial_seeds[k], self.rhos[k]
        samples, self.samples = self.samples, {}
        if len(samples) == 2:
            (plain, starred), gauss = (samples["simulate_max_statistics"],
                                       samples["sample_gaussian_max"])
        else:  # estimate_rhos drew its samples some other way: draw them again
            plain, starred = self.samplers["simulate_max_statistics"](
                self.spec, self.scheme, self.mult, NULL_REPS, seed)
            gauss = self.samplers["sample_gaussian_max"](self.model, NULL_REPS, seed)
        bad = []
        pairs = {"rho": (plain, gauss), "rho_star": (starred, gauss),
                 "rho_direct": (plain, starred)}
        for key, (a, b) in pairs.items():
            ref = ks_2samp(a, b).statistic
            if not _close(getattr(rho, key), float(ref), 0.0, atol=1e-12):
                bad.append(f"{key}={getattr(rho, key)!r} != ks_2samp {float(ref)!r}")
        dkw = math.sqrt(math.log(2.0 / NULL_ALPHA) / (2.0 * NULL_REPS))
        for key, sample in (("plain", plain), ("multiplier", starred), ("gaussian", gauss)):
            stat = kstest(sample, exact_cdf).statistic
            if stat > dkw:
                bad.append(f"{key}: KS {stat:.5f} to the exact law > DKW {dkw:.5f}")
        return [{"name": f"trial{k}", "problems": bad}]


# ---------------------------------------------------------------------------
# exact_oracle: exact_enumeration at the full 2**24 outcome budget
# ---------------------------------------------------------------------------


class ExactOracle:
    N, P, B = 8, 2, 1

    def __init__(self, root: Path, seed: int, work: Path):
        # The seed moves values, never the amount of work: the panel scale
        # and the exponential rate vary, the exponents stay fixed.
        rng = random.Random(derive_seed(seed, "exact_oracle"))
        self.scale = rng.uniform(0.5, 2.0)
        self.rate = rng.uniform(0.5, 2.0)
        self.op_names = ["power", "exponential"]

    def setup(self):
        from blocksym.blocking import MultiplierSpec, make_blocks
        from blocksym.processes import DgpSpec
        from blocksym.psi import PsiSpec

        self.spec = DgpSpec("bounded_rademacher", n=self.N, p=self.P, scale=self.scale)
        self.scheme = make_blocks(self.N, self.B)
        self.mult = MultiplierSpec("rademacher")
        self.gauges = {"power": PsiSpec("power", q=2.0),
                       "exponential": PsiSpec("exponential", a=self.rate, b=1.0)}

        self.chains = {}

    def steps(self):
        return [([name], functools.partial(self._enumerate, name),
                 functools.partial(self._check, name)) for name in self.op_names]

    def _enumerate(self, name):
        from blocksym import verify

        self.chains[name] = verify.exact_enumeration(self.spec, self.scheme, self.mult,
                                                     self.gauges[name])

    def bytes_written(self) -> int:
        return 0

    def digests(self) -> dict:
        return {name: repr(chain) for name, chain in self.chains.items()}

    def _closed_form(self, gauge: str) -> float:
        """E psi(scale max_i |2K_i - n| / n), K_i iid Bin(n, 1/2), summed exactly."""
        n, p = self.N, self.P
        cdf = [sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) <= m) / 2**n
               for m in range(n + 1)]
        total = 0.0
        for m in range(n + 1):
            prob = cdf[m] ** p - (cdf[m - 1] ** p if m else 0.0)
            x = self.scale * m / n
            total += prob * (x**2 if gauge == "power" else math.expm1(self.rate * x))
        return total

    def _check(self, name) -> list:
        chain, ref = self.chains[name], self._closed_form(name)
        bad = [f"{field}={getattr(chain, field)!r} != closed form {ref!r}"
               for field in ("lhs", "mid", "rhs")
               if not _close(getattr(chain, field), ref, EXACT_RTOL)]
        return [{"name": name, "problems": bad}]


WORKLOADS = {
    "full_suite": FullSuite,
    "null_calibration": NullCalibration,
    "exact_oracle": ExactOracle,
}
