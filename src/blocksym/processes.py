"""Seedable generators of dependent, mean-zero, high dimensional panels.

A panel is an (n, p) array of observations x[t, i]: n time points of a
p-dimensional process. Five generator kinds are shipped:

- ``iid_gaussian``: iid Gaussian rows, optionally equicorrelated coordinates
- ``var1``: first-order autoregression with scalar coefficient, initialized
  from its exact stationary law
- ``linear_process``: finite-lag moving-average filter over iid innovations
- ``bounded_rademacher``: iid random signs times a scale, support {-s, +s}
- ``truncated_var1``: the var1 path clipped to [-U, U]

Estimators need only per-replication functions of each panel's column
means and within-block column sums, so they never see a panel:
``_draw_block`` draws one block of replications and returns its column
means and block sums, and ``blocking.stream_statistics``, the one function
that schedules passes, draws a pass block by block on its thread pool.
Replication r is a pure function of (spec, seed, stream, purpose, r), so
identical inputs give bit-identical results. Every kind is mean zero by
construction (innovations are centered before filtering, and clipping a
stationary law that is symmetric about zero keeps its mean exactly zero).
Cross-sectional dependence is one equicorrelation c of the innovations, so
every long-run covariance is v I + v_c (11^T - I): two closed-form numbers
(``longrun_covariance``), never a p x p matrix. ``_equicorrelate`` applies
its symmetric square root in place, to the Gaussian innovations here and to
the comparison draws of ``gaussian``.

A pass is cut into blocks of replications (``_block_reps``): block j holds
replications [jL, min((j + 1) L, reps)), where L is ``_BLOCK_BYTES`` of
panel (at least one replication, at most ``MAX_BLOCK_REPS``). A block is
drawn with the one filler per kind (``_fill``) and reduced at once, so a
pass holds only a few blocks of panels. A block of k panels is held
time-major, as an (n, k, p) array whose row t is time t of every panel, so
the column means and the block sums are sums of contiguous rows (a
one-column block is reduced as (k, n, 1), as numpy sums a column). One
generator, ``seeding.generator`` of the key of the substream (seed, stream,
purpose, first) of the block's first replication, draws the whole block
time-major: an SFC64 stream from a 256-bit state hashed from the key by
``SeedSequence``, of which a block reads about 0.5M words, so blocks'
streams do not overlap in practice. Block bounds depend only on n, p,
``MAX_BLOCK_REPS`` and ``_BLOCK_BYTES``, and a run's last block is drawn
at full length (the cap bounds that overdraw), so
a block's rows do not depend on how many replications the run asks for:
replication r stays a pure function of its coordinates, and a block of one
replication draws exactly what its own substream gives. Changing
``_BLOCK_BYTES`` moves the draws.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

import numpy as np

# Each generator kind and the fields it reads beside kind, n, p and cross_corr.
KINDS = {
    "iid_gaussian": (),
    "var1": ("phi",),
    "linear_process": ("coeffs", "innovation"),
    "bounded_rademacher": ("scale",),
    "truncated_var1": ("phi", "truncation"),
}

_INNOVATIONS = ("gaussian", "rademacher")

# Replications per block at most, which bounds how far a run's last block,
# drawn at full length, overdraws.
MAX_BLOCK_REPS = 2048

# Panel bytes per block of replications (at least one replication): the
# unit that is drawn, reduced and handed to the draw pool at once, and that
# one generator draws, so changing it moves the draws.
_BLOCK_BYTES = 4 << 20

# Replications whose linear-process innovations are drawn at once.
_SLICE = 64

# The largest |phi| and |cross_corr| of the clipped autoregression: its
# closed-form covariance sums about 20,000 Hermite terms at 0.999, and the
# count grows without bound near 1. The series stops once the bound on the
# terms left out falls below ``_SERIES_TOLERANCE`` gamma(1).
MAX_CLIPPED_RHO = 0.999
_SERIES_TOLERANCE = 1e-17


class DgpValidationError(ValueError):
    """Invalid generator specification; the message names the field."""


def _is_real(value) -> bool:
    """Whether ``value`` is a real number other than a boolean."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def from_fields(cls, obj: dict):
    """The dataclass ``cls`` built from the JSON object ``obj``.

    An unknown key raises ``"<key>: unknown field"`` and an absent field
    without a default ``"<field>: missing"``; ``cls`` checks the values.
    """
    names = {f.name for f in fields(cls)}
    for key in obj:
        if key not in names:
            raise ValueError(f"{key}: unknown field")
    for f in fields(cls):
        if f.name not in obj and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{f.name}: missing")
    return cls(**obj)


class Spec:
    """A config section, a dataclass that ``from_fields`` builds. ``reads``
    names the fields its kind or mode reads (every field unless narrowed);
    the echo ``to_json_dict`` writes those that are not None, less those in
    ``QUIET`` that hold their defaults."""

    QUIET = ()

    def reads(self) -> tuple:
        return tuple(f.name for f in fields(self))

    def to_json_dict(self) -> dict:
        defaults = {f.name: f.default for f in fields(self)}
        echo = {name: getattr(self, name) for name in self.reads()}
        return {name: value for name, value in echo.items() if value is not None
                and (name not in self.QUIET or value != defaults[name])}


@dataclass(frozen=True)
class DgpSpec(Spec):
    """Full description of one panel-generating process.

    A kind reads the fields ``reads`` names and ignores the rest: ``phi``
    drives var1/truncated_var1, ``coeffs`` and ``innovation`` drive
    linear_process, ``scale`` drives bounded_rademacher, ``truncation`` is
    the clip level of truncated_var1, and ``cross_corr`` equicorrelates the
    innovation coordinates where that is meaningful (every kind checks it).
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
        try:
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        except TypeError:
            raise DgpValidationError(
                f"coeffs: expected a list of numbers, got {self.coeffs!r}") from None
        if self.kind not in KINDS:
            raise DgpValidationError(f"kind: unknown generator kind {self.kind!r}")
        for name in ("n", "p"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DgpValidationError(f"{name}: expected an integer, got {value!r}")
        numbers = [(name, getattr(self, name))
                   for name in ("phi", "scale", "truncation", "cross_corr")]
        numbers += [(f"coeffs[{i}]", c) for i, c in enumerate(self.coeffs)]
        for name, value in numbers:
            if not _is_real(value):
                raise DgpValidationError(f"{name}: expected a number, got {value!r}")
            if not math.isfinite(value):
                raise DgpValidationError(f"{name}: expected a finite number, got {value!r}")
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
        if self.kind == "truncated_var1":
            if self.truncation <= 0:
                raise DgpValidationError(
                    f"truncation: clip level must be > 0, got {self.truncation}"
                )
            for name in ("phi", "cross_corr"):
                if abs(getattr(self, name)) > MAX_CLIPPED_RHO:
                    raise DgpValidationError(f"{name}: the clipped autoregression's closed "
                                             f"form needs |{name}| <= {MAX_CLIPPED_RHO}, "
                                             f"got {getattr(self, name)}")
        if self.p > 1:
            low = -1.0 / (self.p - 1)
            if not (low < self.cross_corr < 1.0):
                raise DgpValidationError(
                    f"cross_corr: must lie in ({low:.4f}, 1) for p={self.p}, "
                    f"got {self.cross_corr}"
                )
        elif self.cross_corr != 0.0:
            raise DgpValidationError("cross_corr: meaningless for p=1, set 0")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def support_bound(self) -> Optional[float]:
        """Almost-sure bound on |x[t, i]|, or None for unbounded kinds."""
        if self.kind == "bounded_rademacher":
            return self.scale
        if self.kind == "truncated_var1":
            return self.truncation
        if self.kind == "linear_process" and self.innovation == "rademacher":
            # Summed in filter order, so the aligned-sign value is this bound
            # exactly and rounding, monotone in each term, never exceeds it.
            return sum(abs(a) for a in self.coeffs)
        return None

    @property
    def is_iid(self) -> bool:
        return self.kind in ("iid_gaussian", "bounded_rademacher") or (
            self.kind == "var1" and self.phi == 0.0
        )

    QUIET = ("cross_corr",)

    def reads(self) -> tuple:
        return ("kind", "n", "p", *KINDS[self.kind], "cross_corr")


# ---------------------------------------------------------------------------
# Drawing machinery
# ---------------------------------------------------------------------------


def _equicorrelate(x: np.ndarray, parallel: float, perp: float) -> None:
    """Map each vector on the last axis of ``x`` in place by the symmetric
    square root of the covariance with eigenvalue ``parallel`` along 1 and
    ``perp`` across it: x -> sqrt(perp) x + (sqrt(parallel) - sqrt(perp))
    mean(x). A vector's result does not depend on the block it falls in;
    with both eigenvalues 1 nothing is done."""
    across, along = math.sqrt(perp), math.sqrt(parallel)
    shift = x.mean(axis=-1, keepdims=True) if along != across else None
    if across != 1.0:
        x *= across
    if shift is not None:
        x += np.multiply(shift, along - across, out=shift)


def _linear_filter(e: np.ndarray, spec: DgpSpec, out: np.ndarray) -> np.ndarray:
    """Add the filtered innovations ``e`` (..., rows, p) into ``out`` (..., n, p)."""
    offset = len(spec.coeffs) - 1
    for j, a in enumerate(spec.coeffs):
        if a != 0.0:
            out += a * e[..., offset - j : offset - j + spec.n, :]
    return out


def _innovate(rng: np.random.Generator, spec: DgpSpec, out: np.ndarray) -> None:
    """Fill ``out`` with iid innovations of the kind, in the generator's
    order: signs of magnitude ``scale`` (bounded_rademacher) or 1
    (Rademacher innovations), numpy's int8 integers on {0, 1} mapped to -1
    and +1, else standard normals equicorrelated along the last axis."""
    if spec.kind == "bounded_rademacher" or (
            spec.kind == "linear_process" and spec.innovation == "rademacher"):
        scale = spec.scale if spec.kind == "bounded_rademacher" else 1.0
        np.multiply(rng.integers(0, 2, size=out.shape, dtype=np.int8), 2.0 * scale, out=out)
        out -= scale
    else:
        rng.standard_normal(out=out)
        # The eigenvalues of (1 - c) I + c 11^T along 1 and across it.
        _equicorrelate(out, 1.0 + (spec.p - 1) * spec.cross_corr, 1.0 - spec.cross_corr)


def _fill(spec: DgpSpec, rng: np.random.Generator, wanted: int, out: np.ndarray) -> None:
    """Fill the first ``wanted`` replications of ``out``, one block of panels
    stored time-major: ``out`` is (n, full, p) in C order, and out[t, r] is
    row t of replication r.

    The one filler of every kind. ``rng`` is ``seeding.generator`` of the
    key of the block's first replication, built by the caller, and ``full``
    is the block's length, which a run's last block may exceed ``wanted``
    by; the columns past ``wanted`` may be left as they were. The block
    reads ``rng`` alone, time-major, and every draw goes through
    ``_innovate``: iid kinds fill the whole buffer with one call; var1 kinds draw the initial states of all ``full``
    replications and then the whole innovation buffer, run the recursion in
    place row by row and clip after it; linear processes draw their longer
    innovations a slice of ``_SLICE`` replications at a time as (rows,
    slice, p), each slice at its full width within ``full``. So no
    replication depends on how many are wanted. Fills run on draw-pool
    threads, so this path calls no public function: the tracer keeps one
    span stack.
    """
    n, p = spec.n, spec.p
    full = out.shape[1]
    if spec.kind in ("iid_gaussian", "bounded_rademacher"):
        _innovate(rng, spec, out)
    elif spec.kind == "linear_process":
        # The lags make the innovations longer than the panels, so they are
        # drawn and filtered a slice of replications at a time.
        rows = n + len(spec.coeffs) - 1
        buffer = np.empty(rows * min(_SLICE, full) * p)
        out.fill(0.0)
        for lo in range(0, wanted, _SLICE):
            hi = min(lo + _SLICE, full)
            e = buffer[: rows * (hi - lo) * p].reshape(rows, hi - lo, p)
            _innovate(rng, spec, e)
            _linear_filter(e.transpose(1, 0, 2), spec, out[:, lo:hi].transpose(1, 0, 2))
    else:
        start = np.empty((full, p))
        _innovate(rng, spec, start)
        _innovate(rng, spec, out)
        # x[t] = e[t] + phi x[t - 1] from the stationary state before t = 0,
        # in place on whole rows; ``start`` is reused for phi x[t - 1].
        start /= math.sqrt(1.0 - spec.phi * spec.phi)
        for t in range(n):
            np.multiply(start if t == 0 else out[t - 1], spec.phi, out=start)
            out[t] += start
        if spec.kind == "truncated_var1":
            np.clip(out, -spec.truncation, spec.truncation, out=out)


def _block_sums(x: np.ndarray, b: int, axis: int = -2) -> np.ndarray:
    """Sums of each run of b consecutive entries along the time axis ``axis``,
    which shrinks from n to n/b: (..., n, p) -> (..., n/b, p) by default."""
    axis %= x.ndim
    shape = x.shape
    runs = x.reshape(*shape[:axis], shape[axis] // b, b, *shape[axis + 1 :])
    return runs.sum(axis=axis + 1)


def _block_reps(spec: DgpSpec) -> int:
    """Replications per block of a pass of ``spec``: ``_BLOCK_BYTES`` of
    panel, at least one replication and at most ``MAX_BLOCK_REPS``."""
    return min(MAX_BLOCK_REPS, max(1, _BLOCK_BYTES // (spec.n * spec.p * 8)))


def _draw_block(spec: DgpSpec, b: Optional[int], wanted: int, full: int,
                rng: np.random.Generator, copy_rng: Optional[np.random.Generator]):
    """Draw the first ``wanted`` replications of a block of ``full`` from
    ``rng``, ``seeding.generator`` of the key of its first replication,
    minus their copies from ``copy_rng`` if given; returns the panel buffer,
    the (wanted, p) column means and the (wanted, n/b, p) within-block
    column sums over blocks of length ``b`` (None without ``b``), a view of
    the time-major sums.

    Both sums run over the time-major rows one row at a time, as
    ``blocking.batch_max_abs_mean`` and ``batch_block_sums`` sum (k, n, p)
    panels when p > 1; numpy sums a contiguous column pairwise, so a
    one-column block is copied to those kernels' (k, n, 1) layout. So each
    replication is summed in one order in any block, bit for bit as the
    kernels sum it. Runs on draw-pool threads: it calls no public function.
    """
    n, p = spec.n, spec.p
    x = np.empty((n, full, p))
    _fill(spec, rng, wanted, x)
    x = x[:, :wanted]
    if copy_rng is not None:
        copy = np.empty((n, full, p))
        _fill(spec, copy_rng, wanted, copy)
        x -= copy[:, :wanted]
        del copy
    if p == 1:
        x = np.ascontiguousarray(x.transpose(1, 0, 2))
        means = x.mean(axis=1)
        sums = None if b is None else _block_sums(x, b)
    else:
        means = x.sum(axis=0)
        means /= n
        sums = None if b is None else _block_sums(x, b, 0).transpose(1, 0, 2)
    return x, means, sums


def marginal_spec(spec: DgpSpec) -> DgpSpec:
    """Spec producing single rows from the stationary marginal law."""
    return replace(spec, n=1)


def _clipped_correlations(tau: float, rho: np.ndarray) -> tuple[float, np.ndarray]:
    """gamma(1) and gamma at each of ``rho`` (|rho| <= ``MAX_CLIPPED_RHO``),
    for gamma(rho) = E[f(Z) f(Z')], f = clip(., -tau, tau) and Z, Z'
    standard normals of correlation rho.

    Mehler's expansion of the bivariate normal (Kibble 1945) gives gamma(rho)
    = sum_k c_k^2 k! rho^k over the Hermite coefficients c_k of f; by parts,
    c_1 = 2 Phi(tau) - 1, c_k = 0 for even k, and c_k^2 k! = 4 phi(tau)^2
    h_{k-2}(tau)^2 / (k (k - 1)) for odd k >= 3, h_j = He_j / sqrt(j!).
    phi(tau) h_j(tau) is built by its three-term recurrence, so nothing
    overflows. The odd-k weights sum to gamma(1) - c_1^2, so the terms left
    out are at most max |rho|^k times that sum: the series stops once that
    bound is below ``_SERIES_TOLERANCE`` gamma(1).
    """
    inside = math.erf(tau / math.sqrt(2.0))  # 2 Phi(tau) - 1
    density = math.exp(-0.5 * tau * tau) / math.sqrt(2.0 * math.pi)
    at_one = inside - 2.0 * tau * density + tau * tau * math.erfc(tau / math.sqrt(2.0))
    rest = at_one - inside * inside
    largest = float(np.abs(rho).max(initial=0.0))
    terms = 0
    if largest > 0.0 and rest > _SERIES_TOLERANCE * at_one:
        order = math.log(_SERIES_TOLERANCE * at_one / rest) / math.log(largest)
        terms = max(0, math.ceil((order - 3.0) / 2.0))
    scaled = [density, tau * density]  # phi(tau) h_j(tau), j = 0, 1, ...
    for j in range(1, 2 * terms - 1):
        scaled.append((tau * scaled[j] - math.sqrt(j) * scaled[j - 1]) / math.sqrt(j + 1))
    out = inside * inside * rho
    power, square = rho**3, rho * rho
    for k in range(3, 2 * terms + 2, 2):
        out += 4.0 * scaled[k - 2] ** 2 / (k * (k - 1)) * power
        power *= square
    return at_one, out


def longrun_covariance(spec: DgpSpec) -> tuple[float, float]:
    """The closed-form variance v of sqrt(n) times one panel column mean and
    the covariance v_c of two of them: the long-run covariance is v I + v_c
    (11^T - I).

    Sums the lag autocovariances with the finite-n weights (1 - |h|/n); the
    linear-filter kinds have v_c = c v, c = ``cross_corr``. The var1 path
    has variance sigma^2 = 1 / (1 - phi^2) and lag-h correlations phi^h
    within a column and c phi^h across, so v = sigma^2 [gamma(1) + 2 sum_h
    (1 - h/n) gamma(phi^h)] and v_c = sigma^2 [gamma(c) + 2 sum_h (1 - h/n)
    gamma(c phi^h)], with gamma(rho) = rho, or, clipped at tau = truncation /
    sigma, gamma of ``_clipped_correlations``.
    """
    n, c = spec.n, spec.cross_corr
    if spec.kind in ("var1", "truncated_var1"):
        sigma2 = 1.0 / (1.0 - spec.phi**2)
        lags = spec.phi ** np.arange(1, n)
        weights = 2.0 * (1.0 - np.arange(1, n) / n)
        rho = np.concatenate(([c], lags, c * lags))
        at_one, gamma = (1.0, rho) if spec.kind == "var1" else _clipped_correlations(
            spec.truncation / math.sqrt(sigma2), rho)
        return (sigma2 * (at_one + float(weights @ gamma[1:n])),
                sigma2 * float(gamma[0] + weights @ gamma[n:]))
    if spec.kind == "iid_gaussian":
        v = 1.0
    elif spec.kind == "bounded_rademacher":
        v = spec.scale**2
    else:
        a = np.asarray(spec.coeffs)
        v = float(np.dot(a, a))
        for h in range(1, min(len(a) - 1, n - 1) + 1):
            v += 2.0 * (1.0 - h / n) * float(np.dot(a[:-h], a[h:]))
    return v, c * v


def theoretical_longrun_variance(spec: DgpSpec) -> float:
    """Closed-form variance v of sqrt(n) times one panel column mean, for
    every kind (``longrun_covariance``)."""
    return longrun_covariance(spec)[0]
