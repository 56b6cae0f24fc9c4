"""Gaussian comparison process and Kolmogorov distance estimation.

The comparison process is the centered Gaussian vector whose covariance
matches that of sqrt(n) times the panel column means. That covariance is
equicorrelated, so a ``GaussianModel`` holds it as two eigenvalues and no
p x p matrix is built, factored or multiplied. Where the long-run
covariance has no closed form, the model is read from the ``MeanGram`` that
a pass of the tail stream folded, so the model draws nothing of its own; it
is never fitted to the panels whose distances it enters, which would bias
those distances down. The distances of
interest are sup-norm gaps between empirical CDFs of max-abs statistics:
the plain statistic versus the Gaussian max, the block-multiplier statistic
versus the Gaussian max, and the two simulated statistics directly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .blocking import (BlockScheme, MeanGram, MultiplierSpec, StreamStatistics, _max_last,
                       stream_statistics)
from .processes import (DgpSpec, _eigenvariances, _equicorrelate, _is_real,
                        theoretical_longrun_variance)
from .seeding import PURPOSE_DEFAULT, PURPOSE_TAIL, STREAM_GAUSSIAN, substream

# Pooled points whose CDF gap ``kolmogorov_distance`` evaluates at once.
_KS_SLICE = 8192


class CovarianceError(ValueError):
    pass


@dataclass(frozen=True)
class GaussianModel:
    """The comparison law N(0, cov) in dimension ``p``, cov equicorrelated.

    ``parallel`` is the eigenvalue of cov along the all-ones vector and
    ``perp`` across it: v (1 + (p - 1) c) and v (1 - c) for v ((1 - c) I +
    c 11^T). Both finite and >= 0 is all it takes for cov to be PSD; at
    p = 1 only ``parallel`` counts.
    """

    p: int
    parallel: float
    perp: float
    source: str = "analytic"

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise CovarianceError(f"p: expected an integer >= 1, got {self.p!r}")
        for name in ("parallel", "perp"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value >= 0):
                raise CovarianceError(f"{name}: expected a finite variance >= 0, got {value!r}")


@dataclass(frozen=True)
class RhoEstimate:
    """Kolmogorov distance estimates for one configuration.

    ``rho`` compares the plain max statistic to the Gaussian max, ``rho_star``
    the block-multiplier statistic to the Gaussian max, and ``rho_direct``
    the two simulated statistics. ``se`` is the distribution-free two-sample
    uncertainty bound 2 * sqrt(ln(2 / 0.05) / (2 * reps)).
    """

    rho: float
    rho_star: float
    rho_direct: float
    reps: int
    se: float

    def __post_init__(self):
        for name in ("rho", "rho_star", "rho_direct"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        # Sup-norm triangle inequality holds sample-wise; allow slack 2 se
        # for externally constructed estimates.
        if self.rho_direct > self.rho + self.rho_star + 2.0 * self.se + 1e-12:
            raise ValueError("rho_direct exceeds rho + rho_star + 2 se")

    @classmethod
    def from_samples(cls, plain, starred, gauss) -> "RhoEstimate":
        """The three distances between paired max-statistic samples, each
        sample sorted once."""
        reps = len(plain)
        plain, starred, gauss = (np.sort(np.asarray(x, dtype=float))
                                 for x in (plain, starred, gauss))
        return cls(
            rho=kolmogorov_distance(plain, gauss),
            rho_star=kolmogorov_distance(starred, gauss),
            rho_direct=kolmogorov_distance(plain, starred),
            reps=reps,
            se=rho_uncertainty(reps),
        )

    def to_json_dict(self) -> dict:
        return asdict(self)


def rho_uncertainty(reps: int) -> float:
    """The reported DKW-style uncertainty 2 * sqrt(ln(2/0.05) / (2 reps))."""
    return 2.0 * math.sqrt(math.log(2.0 / 0.05) / (2.0 * reps))


def model_reduction(spec: DgpSpec) -> MeanGram:
    """The reduction of the tail pass that the MC model reads: the Gram of
    sqrt(n) times the column means."""
    return MeanGram(math.sqrt(spec.n))


def estimate_gaussian_model(
    spec: DgpSpec,
    method: str = "analytic",
    tail: Optional[StreamStatistics] = None,
) -> GaussianModel:
    """Comparison covariance, analytically or by Monte Carlo; draws nothing.

    The analytic route takes v ((1 - c) I + c 11^T), v the closed-form
    long-run variance and c = ``cross_corr``. The MC route reads
    ``model_reduction(spec)`` from ``tail``, a pass of the tail stream of
    ``spec`` of at least 1000 replications: the Gram G of sqrt(n) times its
    column means, as its trace T and total 1^T G 1. It takes the eigenvalues
    of the equicorrelated projection of G / reps, total / (p reps) and
    (p T - total) / (p (p - 1) reps), clipped at 0. Both are linear in G, so
    unbiased; the mean is not recentered because every generator kind is
    mean zero by construction.
    """
    if method == "analytic":
        variances = _eigenvariances(theoretical_longrun_variance(spec), spec.cross_corr, spec.p)
        return GaussianModel(spec.p, *variances, source="analytic")
    if method != "mc":
        raise ValueError(f"unknown model method {method!r}")
    if tail is None:
        raise ValueError(f"the mc model reads {model_reduction(spec)} of a tail pass; "
                         f"none was given")
    tail.require("model", spec, tail.seed, PURPOSE_TAIL)
    reps = tail.reps
    if reps < 1000:
        raise ValueError(f"mc covariance needs reps >= 1000, got {reps}")
    trace, total = tail.read(model_reduction(spec))
    p = spec.p
    parallel = float(total) / (p * reps)
    perp = parallel if p == 1 else max(0.0, float(p * trace - total) / (p * (p - 1) * reps))
    return GaussianModel(p, parallel, perp, source=f"mc({reps})")


def sample_gaussian_max(model: GaussianModel, draws: int, seed: int) -> np.ndarray:
    """iid draws of max_i |Z_i| with Z ~ N(0, cov), from one (draws, p) array."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    rng = substream(seed, STREAM_GAUSSIAN)
    z = rng.standard_normal((draws, model.p))
    _equicorrelate(z, model.parallel, model.perp)
    return _max_last(np.abs(z, out=z))


def _ascending(x) -> np.ndarray:
    """``x`` as a sorted float array, sorted only if it is not sorted yet."""
    x = np.asarray(x, dtype=float)
    return x if np.all(x[1:] >= x[:-1]) else np.sort(x)


def _run_ends(points: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``searchsorted(points, points[lo:hi], side="right")`` for sorted
    ``points`` in O(hi - lo): the index just past each point's run of ties.

    A point equal to its successor ends where the successor's run ends, so
    the ends are the running minimum from the right of i + 1 at points that
    end a run; only the slice's last run may reach past ``hi``.
    """
    x = points[lo:hi]
    ends = np.arange(lo + 1, hi + 1)
    ends[-1] = np.searchsorted(points, x[-1], side="right")
    ends[:-1][x[:-1] == x[1:]] = ends[-1]
    return np.minimum.accumulate(ends[::-1])[::-1]


def kolmogorov_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Exact sup-norm distance between two empirical CDFs.

    Both CDFs are right-continuous steps that jump only at pooled points, so
    the gap is constant from each pooled point up to the next. Evaluating it
    at every pooled point covers every piece: the left limit at a pooled
    point is the value at the previous one, and 0 below the first. At a
    point of one sample its own CDF is the end of the point's run of ties,
    read off the sorted sample in linear time, so only the other sample is
    searched. The points of each sample are evaluated ``_KS_SLICE`` at a
    time, so no pool and no full-length temporaries are built; a sorted
    sample is not sorted again.
    """
    a, b = _ascending(a), _ascending(b)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if a[0] < 0 or b[0] < 0:
        raise ValueError("max-abs statistics must be >= 0")
    gap = 0.0
    for points, other in ((a, b), (b, a)):
        for lo in range(0, points.size, _KS_SLICE):
            hi = min(lo + _KS_SLICE, points.size)
            gap = max(gap, float(np.abs(
                _run_ends(points, lo, hi) / points.size
                - np.searchsorted(other, points[lo:hi], side="right") / other.size
            ).max()))
    return gap


def simulate_max_statistics(
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    reps: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication plain and block-multiplier max statistics.

    Both statistics are on the sqrt(n) scale of the comparison process. One
    fresh panel per replication feeds both statistics (with fresh
    multipliers), so the two returned samples are paired but each has the
    exact marginal law.
    """
    stats = stream_statistics(spec, reps, seed, PURPOSE_DEFAULT, scheme, mult)
    root_n = math.sqrt(spec.n)
    return root_n * stats.max_abs_mean, root_n * stats.mult_max


class RhoSamples(NamedTuple):
    """The paired samples behind a ``RhoEstimate``, on the sqrt(n) scale: the
    plain and block-multiplier max statistics and the Gaussian max."""

    plain: np.ndarray
    multiplier: np.ndarray
    gaussian: np.ndarray


def draw_rho_samples(
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    model: GaussianModel,
    reps: int,
    seed: int,
) -> RhoSamples:
    """The three samples whose Kolmogorov distances ``estimate_rhos`` reports;
    the model must be of the panels' dimension."""
    if model.p != spec.p:
        raise ValueError(f"the Gaussian model has p={model.p} but the panels have p={spec.p}")
    plain, starred = simulate_max_statistics(spec, scheme, mult, reps, seed)
    return RhoSamples(plain, starred, sample_gaussian_max(model, reps, seed))


def estimate_rhos(
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    model: GaussianModel,
    reps: int,
    seed: int,
) -> RhoEstimate:
    """Kolmogorov distance estimates against the Gaussian comparison law."""
    return RhoEstimate.from_samples(*draw_rho_samples(spec, scheme, mult, model, reps, seed))
