"""Gaussian comparison process and Kolmogorov distance estimation.

The comparison process is the centered Gaussian vector whose covariance
matches that of sqrt(n) times the panel column means. That covariance is
equicorrelated, so a ``GaussianModel`` holds it as two eigenvalues and no
p x p matrix is built, factored or multiplied. Every generator kind has
them in closed form (``processes.longrun_covariance``; for the clipped
autoregression through the Hermite expansion of the bivariate normal), so
the model draws nothing and is fitted to no panels; its maxima are drawn a
chunk of rows at a time (``sample_gaussian_max``). The distances of
interest are sup-norm gaps between empirical CDFs of max-abs statistics:
the plain statistic versus the Gaussian max, the block-multiplier statistic
versus the Gaussian max, and the two simulated statistics directly. A run
takes the plain and multiplier samples from the pass of the tail stream
that it draws with multipliers (``pass_rho_samples``); ``draw_rho_samples``
draws a pass of its own.

Every distance goes through one dispatcher (``_distances``): it sorts its
samples, and then takes each distance, as tasks on the draw pool of
``blocking``, so ``RhoEstimate.from_samples`` sorts its three samples and
then takes its three distances side by side while the calling thread
waits. The one kernel (``_sorted_distance``) searches the second sample
once per slice of the first, and the tasks call no public function.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .blocking import (BlockScheme, MultiplierSpec, StreamStatistics, _max_last, _pool_map,
                       stream_statistics)
from .processes import (_CHUNK_BYTES, DgpSpec, _equicorrelate, _is_finite, _is_real,
                        longrun_covariance)
from .seeding import PURPOSE_DEFAULT, STREAM_GAUSSIAN, substream

# Points of the first sample whose CDF gaps a distance evaluates at once.
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
            if not (_is_real(value) and _is_finite(value) and value >= 0):
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
        sample sorted once; the sorts, and then the distances, run as tasks
        on the draw pool (``_distances``)."""
        reps = len(plain)
        rho, rho_star, rho_direct = _distances((plain, starred, gauss),
                                               ((0, 2), (1, 2), (0, 1)))
        return cls(rho=rho, rho_star=rho_star, rho_direct=rho_direct, reps=reps,
                   se=rho_uncertainty(reps))

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
    """iid draws of max_i |Z_i| with Z ~ N(0, cov): the rows of one (draws,
    p) standard normal draw from one generator, drawn ``_CHUNK_BYTES`` of
    rows at a time and folded into their maxima, so no (draws, p) array is
    held. float64 standard normals carry no state from one call to the
    next, so the chunk size moves no draw."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    rng = substream(seed, STREAM_GAUSSIAN)
    rows = max(1, _CHUNK_BYTES // (8 * model.p))
    z = np.empty((min(rows, draws), model.p))
    out = np.empty(draws)
    for start in range(0, draws, rows):
        chunk = z[: min(rows, draws - start)]
        rng.standard_normal(out=chunk)
        _equicorrelate(chunk, model.parallel, model.perp)
        out[start : start + len(chunk)] = _max_last(np.abs(chunk, out=chunk))
    return out


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


def _run_starts(points: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``searchsorted(points, points[lo:hi], side="left")`` for sorted
    ``points`` in O(hi - lo): the index of the first point of each point's
    run of ties, the twin of ``_run_ends``.

    A point equal to its predecessor starts where the predecessor's run
    starts, so the starts are the running maximum from the left of i at
    points that start a run; only the slice's first run may reach before
    ``lo``.
    """
    x = points[lo:hi]
    starts = np.arange(lo, hi)
    starts[0] = np.searchsorted(points, x[0], side="left")
    starts[1:][x[1:] == x[:-1]] = starts[0]
    return np.maximum.accumulate(starts)


def _sorted_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``kolmogorov_distance`` of two sorted samples, with one search of
    ``b`` per slice of ``_KS_SLICE`` points of ``a``.

    Between two consecutive distinct points of a, F_a is constant and F_b
    does not decrease, so F_a - F_b is largest at the first of them and
    smallest just below the second; below a's first point it runs from 0
    down to its left limit there, and past a's last point from its value
    there down to 0. So the gaps at a's points and just below them cover
    every extreme. At a point x of a, the left search gives #{b < x}, F_b's
    left limit, and F_b(x) is that count moved past b's run of ties at x
    where b holds x; F_a(x) and its left limit are the ends and starts of
    x's run of ties in a (``_run_ends``, ``_run_starts``), read in linear
    time. Every gap is k / len(a) - m / len(b) for counts that the pooled
    evaluation also meets, and float division and subtraction are monotone,
    so the maximum is bit for bit that of the gaps at every pooled point.
    Private, so that it may run on draw-pool threads.
    """
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if a[0] < 0 or b[0] < 0:
        raise ValueError("max-abs statistics must be >= 0")
    gap = 0.0
    for lo in range(0, a.size, _KS_SLICE):
        hi = min(lo + _KS_SLICE, a.size)
        x = a[lo:hi]
        counts = np.searchsorted(b, x, side="left")
        below = np.abs(_run_starts(a, lo, hi) / a.size - counts / b.size).max()
        tied = b[np.minimum(counts, b.size - 1)] == x
        counts[tied] = np.searchsorted(b, x[tied], side="right")
        at = np.abs(_run_ends(a, lo, hi) / a.size - counts / b.size).max()
        gap = max(gap, float(below), float(at))
    return gap


def _distances(samples: tuple, pairs: tuple) -> list:
    """The dispatcher of every Kolmogorov distance: each of ``samples`` as a
    float array, sorted unless it is sorted already, and then the distance
    between samples i and j of each (i, j) of ``pairs``
    (``_sorted_distance``); the sorts and then the distances are tasks on
    the draw pool (``blocking._pool_map``).

    A sample to sort is copied on the calling thread and sorted in place on
    the pool, as ``np.sort`` copies and sorts, so the sorted copies lie in
    the calling thread's heap: sorted into new arrays on the pool threads,
    they took about 1.4 MB more of ``null_calibration``'s peak RSS in those
    threads' malloc arenas.
    """
    ordered, unsorted = [], []
    for x in samples:
        x = np.asarray(x, dtype=float)
        if not np.all(x[1:] >= x[:-1]):
            x = x.copy()
            unsorted.append((x,))
        ordered.append(x)
    _pool_map(np.ndarray.sort, unsorted)
    return _pool_map(_sorted_distance, [(ordered[i], ordered[j]) for i, j in pairs])


def kolmogorov_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Exact sup-norm distance between two empirical CDFs.

    Both CDFs are right-continuous steps that jump only at pooled points, so
    the gap is constant from each pooled point up to the next. It is read at
    the points of ``a`` and just below them (``_sorted_distance``), ``a``
    ``_KS_SLICE`` points at a time, so no pool and no full-length
    temporaries are built; a sorted sample is not sorted again. The sorts
    and the distance run on the draw pool (``_distances``).
    """
    return _distances((a, b), ((0, 1),))[0]


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
