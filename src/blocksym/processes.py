"""Seedable generators of dependent, mean-zero, high dimensional panels.

A panel is an (n, p) array of observations x[t, i]: n time points of a
p-dimensional process. Five generator kinds are shipped:

- ``iid_gaussian``: iid Gaussian rows, optionally equicorrelated coordinates
- ``var1``: first-order autoregression with scalar coefficient, initialized
  from its exact stationary law
- ``linear_process``: finite-lag moving-average filter over iid innovations
- ``bounded_rademacher``: iid random signs times a scale, support {-s, +s}
- ``truncated_var1``: the var1 path clipped to [-U, U]

All generators are pure functions of (spec, seed): identical inputs give
bit-identical panels. Every kind is mean zero by construction (innovations
are centered before filtering, and clipping a stationary law that is
symmetric about zero keeps its mean exactly zero). Cross-sectional
dependence is described by a single equicorrelation coefficient, which keeps
specs serializable while still covering the correlated-coordinate regime.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .seeding import STREAM_COPY, STREAM_PANEL, substream, substream_iter

KINDS = (
    "iid_gaussian",
    "var1",
    "linear_process",
    "bounded_rademacher",
    "truncated_var1",
)

_INNOVATIONS = ("gaussian", "rademacher")

# Presample steps beyond the filter length for linear processes.
_LINEAR_BURN_IN = 100

DEFAULT_CHUNK = 2048


class DgpValidationError(ValueError):
    """Invalid generator specification; the message names the field."""


class LongRunCovError(ValueError):
    """No closed-form long-run covariance exists for the requested kind."""


@dataclass(frozen=True)
class DgpSpec:
    """Full description of one panel-generating process.

    Fields irrelevant to ``kind`` keep their defaults and are ignored:
    ``phi`` drives var1/truncated_var1, ``coeffs`` and ``innovation`` drive
    linear_process, ``scale`` drives bounded_rademacher, ``truncation`` is
    the clip level of truncated_var1, and ``cross_corr`` equicorrelates the
    innovation coordinates where that is meaningful.
    """

    kind: str
    n: int
    p: int
    phi: float = 0.0
    coeffs: tuple = (1.0,)
    innovation: str = "gaussian"
    scale: float = 1.0
    truncation: float = 3.0
    cross_corr: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        self.validate()

    def validate(self):
        if self.kind not in KINDS:
            raise DgpValidationError(f"kind: unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise DgpValidationError(f"n: sample size must be >= 1, got {self.n}")
        if self.p < 1:
            raise DgpValidationError(f"p: dimension must be >= 1, got {self.p}")
        if self.kind in ("var1", "truncated_var1") and not abs(self.phi) < 1:
            raise DgpValidationError(
                f"phi: autoregression requires |phi| < 1, got {self.phi}"
            )
        if self.kind == "linear_process":
            if len(self.coeffs) < 1:
                raise DgpValidationError("coeffs: need at least the lag-0 weight")
            if self.innovation not in _INNOVATIONS:
                raise DgpValidationError(
                    f"innovation: expected one of {_INNOVATIONS}, got {self.innovation!r}"
                )
            if self.innovation == "rademacher" and self.cross_corr != 0.0:
                raise DgpValidationError(
                    "cross_corr: rademacher innovations must be cross-sectionally independent"
                )
        if self.kind == "bounded_rademacher":
            if self.scale <= 0:
                raise DgpValidationError(f"scale: must be > 0, got {self.scale}")
            if self.cross_corr != 0.0:
                raise DgpValidationError(
                    "cross_corr: bounded_rademacher coordinates are independent by construction"
                )
        if self.kind == "truncated_var1" and self.truncation <= 0:
            raise DgpValidationError(
                f"truncation: clip level must be > 0, got {self.truncation}"
            )
        if self.p > 1:
            low = -1.0 / (self.p - 1)
            if not (low < self.cross_corr < 1.0):
                raise DgpValidationError(
                    f"cross_corr: must lie in ({low:.4f}, 1) for p={self.p}, "
                    f"got {self.cross_corr}"
                )
        elif self.cross_corr != 0.0:
            raise DgpValidationError("cross_corr: meaningless for p=1, set 0")

    @property
    def support_bound(self) -> Optional[float]:
        """Almost-sure bound on |x[t, i]|, or None for unbounded kinds."""
        if self.kind == "bounded_rademacher":
            return self.scale
        if self.kind == "truncated_var1":
            return self.truncation
        return None

    @property
    def is_iid(self) -> bool:
        return self.kind in ("iid_gaussian", "bounded_rademacher") or (
            self.kind == "var1" and self.phi == 0.0
        )

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "p": self.p}
        if self.kind in ("var1", "truncated_var1"):
            out["phi"] = self.phi
        if self.kind == "linear_process":
            out["coeffs"] = list(self.coeffs)
            out["innovation"] = self.innovation
        if self.kind == "bounded_rademacher":
            out["scale"] = self.scale
        if self.kind == "truncated_var1":
            out["truncation"] = self.truncation
        if self.cross_corr != 0.0:
            out["cross_corr"] = self.cross_corr
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DgpSpec":
        known = {
            "kind", "n", "p", "phi", "coeffs", "innovation",
            "scale", "truncation", "cross_corr",
        }
        extra = set(obj) - known
        if extra:
            raise DgpValidationError(f"unknown dgp fields: {sorted(extra)}")
        kwargs = dict(obj)
        if "coeffs" in kwargs:
            kwargs["coeffs"] = tuple(kwargs["coeffs"])
        return cls(**kwargs)


@dataclass
class PanelSample:
    """An (n, p) matrix of observations with a mean-zero annotation."""

    data: np.ndarray
    n: int
    p: int
    centered: bool = True

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.n, self.p):
            raise ValueError(
                f"panel shape {self.data.shape} does not match (n={self.n}, p={self.p})"
            )
        if self.n < 1 or self.p < 1:
            raise ValueError("panel dimensions must be at least 1x1")


# ---------------------------------------------------------------------------
# Drawing machinery
# ---------------------------------------------------------------------------


def _cross_chol(p: int, cross_corr: float) -> Optional[np.ndarray]:
    """Cholesky factor of the equicorrelation matrix, or None when identity."""
    if p == 1 or cross_corr == 0.0:
        return None
    sigma = np.full((p, p), cross_corr)
    np.fill_diagonal(sigma, 1.0)
    return np.linalg.cholesky(sigma)


def cross_sectional_cov(spec: DgpSpec) -> np.ndarray:
    """Innovation cross-sectional covariance implied by the spec."""
    sigma = np.full((spec.p, spec.p), spec.cross_corr)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def _var1_paths(spec: DgpSpec, rngs) -> np.ndarray:
    """Stationary var1 paths, one per generator, shape (reps, n, p)."""
    n, p, phi = spec.n, spec.p, spec.phi
    raws = [(rng.standard_normal(p), rng.standard_normal((n, p))) for rng in rngs]
    z0 = np.stack([r[0] for r in raws])
    e = np.stack([r[1] for r in raws])
    chol = _cross_chol(p, spec.cross_corr)
    if chol is not None:
        z0 = z0 @ chol.T
        e = e @ chol.T
    x = np.empty_like(e)
    prev = z0 / math.sqrt(1.0 - phi * phi)
    for t in range(n):
        prev = phi * prev + e[:, t]
        x[:, t] = prev
    return x


def _draw_batch(spec: DgpSpec, rngs) -> np.ndarray:
    """Panels for a batch of per-replication generators, shape (C, n, p).

    ``rngs`` may be a lazy iterator; each generator is fully consumed before
    the next is requested.
    """
    n, p = spec.n, spec.p
    kind = spec.kind
    if kind == "iid_gaussian":
        e = np.stack([rng.standard_normal((n, p)) for rng in rngs])
        chol = _cross_chol(p, spec.cross_corr)
        return e if chol is None else e @ chol.T
    if kind == "bounded_rademacher":
        signs = np.stack([rng.integers(0, 2, size=(n, p)) for rng in rngs])
        return (2.0 * signs - 1.0) * spec.scale
    if kind == "var1":
        return _var1_paths(spec, rngs)
    if kind == "truncated_var1":
        level = spec.truncation
        return np.clip(_var1_paths(spec, rngs), -level, level)
    if kind == "linear_process":
        lags = len(spec.coeffs) - 1
        rows = n + lags + _LINEAR_BURN_IN
        if spec.innovation == "gaussian":
            e = np.stack([rng.standard_normal((rows, p)) for rng in rngs])
            chol = _cross_chol(p, spec.cross_corr)
            if chol is not None:
                e = e @ chol.T
        else:
            signs = np.stack([rng.integers(0, 2, size=(rows, p)) for rng in rngs])
            e = 2.0 * signs - 1.0
        offset = lags + _LINEAR_BURN_IN
        x = np.zeros((len(e), n, p))
        for j, a in enumerate(spec.coeffs):
            if a != 0.0:
                x += a * e[:, offset - j : offset - j + n]
        return x
    raise DgpValidationError(f"kind: unknown generator kind {kind!r}")


def generate(spec: DgpSpec, seed: int) -> PanelSample:
    """Draw one panel. Bit-identical output for identical (spec, seed)."""
    rng = substream(seed, STREAM_PANEL)
    data = _draw_batch(spec, [rng])[0]
    return PanelSample(data=data, n=spec.n, p=spec.p)


def independent_copy(spec: DgpSpec, seed: int) -> PanelSample:
    """Draw a panel with the same law as ``generate`` from a disjoint stream.

    The copy stream never overlaps any sample stream, including for equal
    seeds, so aligned entries of copy and original are independent.
    """
    rng = substream(seed, STREAM_COPY)
    data = _draw_batch(spec, [rng])[0]
    return PanelSample(data=data, n=spec.n, p=spec.p)


def generate_panels(
    spec: DgpSpec,
    reps: int,
    seed: int,
    stream: int = STREAM_PANEL,
    purpose: int = 0,
    chunk: int = DEFAULT_CHUNK,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (offset, panels) chunks; panels has shape (c, n, p).

    Replication r draws from the substream (seed, stream, purpose, r), so
    any single replication can be regenerated in isolation and the full
    batch is independent of chunking or scheduling.
    """
    for start in range(0, reps, chunk):
        stop = min(start + chunk, reps)
        yield start, _draw_batch(spec, substream_iter(seed, stream, purpose, start, stop))


def marginal_spec(spec: DgpSpec) -> DgpSpec:
    """Spec producing single rows from the stationary marginal law."""
    return replace(spec, n=1)


def theoretical_longrun_cov(spec: DgpSpec) -> np.ndarray:
    """Closed-form covariance of sqrt(n) times the panel column means.

    Accumulates all lag autocovariances with the finite-n triangular
    weights (1 - |h|/n). Supported for the linear-filter kinds; the clipped
    autoregression has no closed form.
    """
    if spec.kind == "truncated_var1":
        raise LongRunCovError("no closed form; use MC covariance estimation")
    sigma = cross_sectional_cov(spec)
    n = spec.n
    if spec.kind == "iid_gaussian":
        return sigma
    if spec.kind == "bounded_rademacher":
        return spec.scale**2 * np.eye(spec.p)
    if spec.kind == "var1":
        h = np.arange(1, n)
        weight = 1.0 + 2.0 * np.sum((1.0 - h / n) * spec.phi**h)
        return sigma * weight / (1.0 - spec.phi**2)
    if spec.kind == "linear_process":
        a = np.asarray(spec.coeffs)
        lags = len(a) - 1
        c0 = float(np.dot(a, a))
        weight = c0
        for h in range(1, min(lags, n - 1) + 1):
            ch = float(np.dot(a[:-h], a[h:]))
            weight += 2.0 * (1.0 - h / n) * ch
        return sigma * weight
    raise LongRunCovError(f"unsupported kind {spec.kind!r}")


def write_panel_csv(sample: PanelSample, path) -> None:
    """Export a panel in long format with header ``t,i,value`` (1-based)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "value"])
        for t in range(sample.n):
            for i in range(sample.p):
                writer.writerow([t + 1, i + 1, repr(float(sample.data[t, i]))])
