"""Gaussian comparison process and Kolmogorov distance estimation.

The comparison process is the centered Gaussian vector whose covariance
matches that of sqrt(n) times the panel column means. That covariance is
equicorrelated, so a ``GaussianModel`` holds it as two eigenvalues and no
p x p matrix is built, factored or multiplied. Every generator kind has
them in closed form (``processes.longrun_covariance``; for the clipped
autoregression through the Hermite expansion of the bivariate normal), so
the model draws nothing and is fitted to no panels. The distances of
interest are sup-norm gaps between empirical CDFs of max-abs statistics:
the plain statistic versus the Gaussian max, the block-multiplier statistic
versus the Gaussian max, and the two simulated statistics directly. A run
takes the plain and multiplier samples from the pass of the tail stream
that it draws with multipliers (``pass_rho_samples``); ``draw_rho_samples``
draws a pass of its own.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .blocking import BlockScheme, MultiplierSpec, StreamStatistics, _max_last, stream_statistics
from .processes import DgpSpec, _equicorrelate, _is_real, longrun_covariance
from .seeding import PURPOSE_DEFAULT, STREAM_GAUSSIAN, substream

# Pooled points whose CDF gap ``kolmogorov_distance`` evaluates at once.
_KS_SLICE = 8192


class CovarianceError(ValueError):
    pass


@dataclass(frozen=True)
class GaussianModel:
    """The comparison law N(0, cov) in dimension ``p``, cov equicorrelated.

    ``parallel`` is the eigenvalue of cov along the all-ones vector and
    ``perp`` across it: v + (p - 1) v_c and v - v_c for v I + v_c (11^T -
    I). Both finite and >= 0 is all it takes for cov to be PSD; at p = 1
    only ``parallel`` counts.
    """

    p: int
    parallel: float
    perp: float

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


def estimate_gaussian_model(spec: DgpSpec) -> GaussianModel:
    """The comparison covariance in closed form; draws nothing.

    With v the variance of sqrt(n) times one column mean and v_c the
    covariance of two (``processes.longrun_covariance``), the eigenvalues
    are v + (p - 1) v_c along the all-ones vector and v - v_c across it.
    """
    v, cross = longrun_covariance(spec)
    return GaussianModel(spec.p, v + (spec.p - 1) * cross, v - cross)


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


def pass_maxima(stats: StreamStatistics) -> tuple[np.ndarray, np.ndarray]:
    """The plain and block-multiplier max statistics of a pass drawn with
    multipliers, on the sqrt(n) scale of the comparison process."""
    if stats.mult_max is None:
        raise ValueError("the rho samples read the multiplier statistic (mult_max); "
                         "draw the pass with a block scheme and a multiplier law")
    root_n = math.sqrt(stats.spec.n)
    return root_n * stats.max_abs_mean, root_n * stats.mult_max


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
    return pass_maxima(stream_statistics(spec, reps, seed, PURPOSE_DEFAULT, scheme, mult))


class RhoSamples(NamedTuple):
    """The paired samples behind a ``RhoEstimate``, on the sqrt(n) scale: the
    plain and block-multiplier max statistics and the Gaussian max."""

    plain: np.ndarray
    multiplier: np.ndarray
    gaussian: np.ndarray


def _check_dimension(model: GaussianModel, spec: DgpSpec) -> None:
    if model.p != spec.p:
        raise ValueError(f"the Gaussian model has p={model.p} but the panels have p={spec.p}")


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
    _check_dimension(model, spec)
    plain, starred = simulate_max_statistics(spec, scheme, mult, reps, seed)
    return RhoSamples(plain, starred, sample_gaussian_max(model, reps, seed))


def pass_rho_samples(stats: StreamStatistics, model: GaussianModel) -> RhoSamples:
    """The three rho samples of a pass drawn with multipliers, as
    ``draw_rho_samples`` gives them for the pass it draws: its maxima
    (``pass_maxima``) and as many Gaussian maxima at its seed."""
    _check_dimension(model, stats.spec)
    plain, starred = pass_maxima(stats)
    return RhoSamples(plain, starred, sample_gaussian_max(model, stats.reps, stats.seed))


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
