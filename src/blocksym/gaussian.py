"""Gaussian comparison process and Kolmogorov distance estimation.

The comparison process is the centered Gaussian vector whose covariance
matches that of sqrt(n) times the panel column means. The distances of
interest are sup-norm gaps between empirical CDFs of max-abs statistics:
the plain statistic versus the Gaussian max, the block-multiplier statistic
versus the Gaussian max, and the two simulated statistics directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .blocking import (
    BlockScheme,
    MultiplierSpec,
    batch_block_sums,
    batch_max_abs_mean,
    batch_multiplier_max,
    batch_multipliers,
)
from .processes import DgpSpec, generate_panels, theoretical_longrun_cov
from .seeding import (
    PURPOSE_DEFAULT,
    PURPOSE_MODEL,
    STREAM_GAUSSIAN,
    STREAM_PANEL,
    substream,
)

_SYM_TOL = 1e-10
_EIG_TOL = 1e-8


class CovarianceError(ValueError):
    pass


@dataclass
class GaussianModel:
    """Covariance of the comparison vector plus a sampling factor.

    The matrix is symmetrized, then eigenvalues in [-tol * max_eig, 0) are
    clipped to zero; anything more negative raises. Sampling uses the
    symmetric square root.
    """

    cov: np.ndarray
    source: str = "analytic"

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise CovarianceError(f"covariance must be square, got {cov.shape}")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > _SYM_TOL * scale:
            raise CovarianceError("covariance is not symmetric within tolerance")
        cov = 0.5 * (cov + cov.T)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = max(float(eigvals.max()), 0.0)
        if eigvals.min() < -_EIG_TOL * max(top, 1e-300):
            raise CovarianceError(
                f"covariance is not PSD: min eigenvalue {eigvals.min():.3e} "
                f"against top {top:.3e}"
            )
        clipped = np.clip(eigvals, 0.0, None)
        self.cov = cov
        self._factor = (eigvecs * np.sqrt(clipped)) @ eigvecs.T

    @property
    def p(self) -> int:
        return self.cov.shape[0]


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
        """The three distances between paired max-statistic samples."""
        reps = len(plain)
        return cls(
            rho=kolmogorov_distance(plain, gauss),
            rho_star=kolmogorov_distance(starred, gauss),
            rho_direct=kolmogorov_distance(plain, starred),
            reps=reps,
            se=rho_uncertainty(reps),
        )

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "rho_star": self.rho_star,
            "rho_direct": self.rho_direct,
            "reps": self.reps,
            "se": self.se,
        }


def dkw_two_sample_bound(reps: int, alpha: float = 0.05) -> float:
    """Distribution-free level-alpha critical value for equal-size samples.

    From 2 exp(-2 eps^2 m n / (m + n)) <= alpha with m = n = reps.
    """
    return math.sqrt(math.log(2.0 / alpha) / reps)


def rho_uncertainty(reps: int) -> float:
    """The reported DKW-style uncertainty 2 * sqrt(ln(2/0.05) / (2 reps))."""
    return 2.0 * math.sqrt(math.log(2.0 / 0.05) / (2.0 * reps))


def estimate_gaussian_model(
    spec: DgpSpec,
    method: str = "analytic",
    reps: int = 10_000,
    seed: int = 0,
) -> GaussianModel:
    """Comparison covariance, analytically or by Monte Carlo.

    The MC route averages outer products of sqrt(n) times the column means
    over fresh panels; the mean is not recentered because every generator
    kind is mean zero by construction.
    """
    if method == "analytic":
        return GaussianModel(cov=theoretical_longrun_cov(spec), source="analytic")
    if method != "mc":
        raise ValueError(f"unknown model method {method!r}")
    if reps < 1000:
        raise ValueError(f"mc covariance needs reps >= 1000, got {reps}")
    acc = np.zeros((spec.p, spec.p))
    for _, panels in generate_panels(spec, reps, seed, STREAM_PANEL, PURPOSE_MODEL):
        means = panels.mean(axis=1) * math.sqrt(spec.n)
        acc += means.T @ means
    return GaussianModel(cov=acc / reps, source=f"mc({reps})")


def sample_gaussian_max(model: GaussianModel, draws: int, seed: int) -> np.ndarray:
    """iid draws of max_i |Z_i| with Z ~ N(0, cov)."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    rng = substream(seed, STREAM_GAUSSIAN)
    z = rng.standard_normal((draws, model.p)) @ model._factor
    return np.abs(z).max(axis=1)


def kolmogorov_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Exact sup-norm distance between two empirical CDFs.

    Evaluates the gap at and just below every pooled point, which covers
    every constant piece of the step-function difference.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if a[0] < 0 or b[0] < 0:
        raise ValueError("max-abs statistics must be >= 0")
    pooled = np.concatenate([a, b])
    gap_hi = np.abs(
        np.searchsorted(a, pooled, side="right") / a.size
        - np.searchsorted(b, pooled, side="right") / b.size
    ).max()
    gap_lo = np.abs(
        np.searchsorted(a, pooled, side="left") / a.size
        - np.searchsorted(b, pooled, side="left") / b.size
    ).max()
    return float(max(gap_hi, gap_lo))


def simulate_max_statistics(
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    reps: int,
    seed: int,
    purpose: int = PURPOSE_DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication plain and block-multiplier max statistics.

    Both statistics are on the sqrt(n) scale of the comparison process. One
    fresh panel per replication feeds both statistics (with fresh
    multipliers), so the two returned samples are paired but each has the
    exact marginal law.
    """
    if scheme.n != spec.n:
        raise ValueError(f"scheme n={scheme.n} does not match spec n={spec.n}")
    root_n = math.sqrt(spec.n)
    plain = np.empty(reps)
    starred = np.empty(reps)
    for start, panels in generate_panels(spec, reps, seed, STREAM_PANEL, purpose):
        stop = start + len(panels)
        plain[start:stop] = root_n * batch_max_abs_mean(panels)
        eps = batch_multipliers(mult, scheme.count, seed, purpose, start, stop)
        sums = batch_block_sums(panels, scheme)
        starred[start:stop] = root_n * batch_multiplier_max(sums, eps, spec.n)
    return plain, starred


def estimate_rhos(
    spec: DgpSpec,
    scheme: BlockScheme,
    mult: MultiplierSpec,
    model: GaussianModel,
    reps: int,
    seed: int,
) -> RhoEstimate:
    """Kolmogorov distance estimates against the Gaussian comparison law."""
    plain, starred = simulate_max_statistics(spec, scheme, mult, reps, seed)
    return RhoEstimate.from_samples(plain, starred, sample_gaussian_max(model, reps, seed))
