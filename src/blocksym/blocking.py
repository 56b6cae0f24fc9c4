"""Block schemes, block sums, multiplier draws, and the max statistics.

The sample {1..n} is partitioned into count = n/b contiguous blocks of equal
length b; a ``BlockScheme`` holds only n, b and count, and the block sums
apply the partition. Multipliers are drawn once per block and expanded to a
piecewise-constant weight per time point. The two statistics of interest are
the largest absolute column mean of a panel and its block-multiplier
counterpart max_i |(1/n) sum_l eps_l S[l, i]|.

Every estimator, the Gaussian comparison and the exact oracle compute these
through the ``batch_*`` kernels, which act on stacks of panels along any
leading axes.

Monte Carlo estimators read their panels only through ``stream_statistics``,
which reduces a panel stream to per-replication vectors: the largest absolute
column mean and the block-multiplier maximum. The (reps, p) column means are
kept only for requests that ask for them. The panels themselves never reach
this module: ``processes.reduce_panels`` hands over each chunk's column means
and block sums, and the multipliers are applied to those sums here. Inside a
``shared_passes()`` block each distinct request is drawn once and served from
the block's ledger afterwards.
"""

from __future__ import annotations

import contextlib
import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .processes import DgpSpec, _block_sums, reduce_panels
from .seeding import (
    STREAM_COPY,
    STREAM_MULTIPLIER,
    STREAM_PANEL,
    philox_signs,
    philox_words,
    substream_keys,
)

MULTIPLIER_KINDS = ("rademacher", "uniform_sym")


class BlockSchemeError(ValueError):
    pass


@dataclass(frozen=True)
class BlockScheme:
    """Equal-length contiguous partition of {0..n-1} into count blocks."""

    n: int
    b: int
    count: int

    def to_json_dict(self) -> dict:
        return {"n": self.n, "b": self.b}


@dataclass(frozen=True)
class MultiplierSpec:
    """Bounded, zero-mean, unit-variance multiplier law.

    ``rademacher`` puts mass 1/2 on each of -1 and +1; ``uniform_sym`` is
    uniform on [-sqrt(3), sqrt(3)]. Both have |eps| <= bound almost surely.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in MULTIPLIER_KINDS:
            raise ValueError(f"kind: unknown multiplier kind {self.kind!r}")

    @property
    def bound(self) -> float:
        return 1.0 if self.kind == "rademacher" else math.sqrt(3.0)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind}


def make_blocks(n: int, b: int) -> BlockScheme:
    """Blocks of length b covering {0..n-1}; b must divide n exactly."""
    if not 1 <= b <= n:
        raise BlockSchemeError(f"block size must satisfy 1 <= b <= n, got b={b}, n={n}")
    if n % b != 0:
        raise BlockSchemeError(f"block size must divide n (n={n}, b={b})")
    return BlockScheme(n=n, b=b, count=n // b)


def batch_block_sums(panels: np.ndarray, scheme: BlockScheme) -> np.ndarray:
    """Within-block column sums over leading axes: (..., n, p) -> (..., count, p)."""
    if panels.shape[-2] != scheme.n:
        raise BlockSchemeError(f"scheme is for n={scheme.n} but panels have n={panels.shape[-2]}")
    return _block_sums(panels, scheme.b)


def batch_max_abs_mean(panels: np.ndarray) -> np.ndarray:
    """Largest absolute column mean over leading axes: (..., n, p) -> (...)."""
    return np.abs(panels.mean(axis=-2)).max(axis=-1)


def batch_multiplier_max(sums: np.ndarray, eps: np.ndarray, n: int) -> np.ndarray:
    """max_i |(1/n) sum_l eps_l S[l, i]| over leading axes.

    ``sums`` has shape (..., count, p) and ``eps`` shape (..., count); their
    leading axes broadcast, so eps of shape (E, 1, count) against sums of
    shape (C, count, p) gives every multiplier vector on every panel, (E, C).
    """
    if eps.shape[-1] != sums.shape[-2]:
        raise BlockSchemeError(
            f"expected {sums.shape[-2]} multipliers, got shape {eps.shape}")
    return np.abs(np.einsum("...l,...lp->...p", eps, sums) / n).max(axis=-1)


def batch_multipliers(mult: MultiplierSpec, count: int, seed: int, purpose: int,
                      start: int, stop: int) -> np.ndarray:
    """Multipliers of replications start..stop-1, shape (stop - start, count).

    Replication r reads the substream (seed, multiplier stream, purpose, r),
    so its multipliers do not depend on the batch it is in. The raw Philox
    words of all replications are computed at once and mapped as numpy's
    ``integers(0, 2)`` (Rademacher) and ``uniform(-sqrt(3), sqrt(3))`` would
    map them, bit for bit.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    keys = substream_keys(seed, STREAM_MULTIPLIER, purpose, start, stop)
    if mult.kind == "rademacher":
        return philox_signs(keys, count)
    half = math.sqrt(3.0)
    unit = (philox_words(keys, count) >> np.uint64(11)) * 2.0**-53
    return -half + (2.0 * half) * unit


class StreamStatistics(NamedTuple):
    """Read-only statistics of one panel stream, one entry per replication:
    the largest absolute column mean, as ``batch_max_abs_mean`` (reps,); the
    block-multiplier maximum when a block scheme was named (reps,); and the
    column means when they were asked for (reps, p)."""

    max_abs_mean: np.ndarray
    mult_max: Optional[np.ndarray]
    means: Optional[np.ndarray]


class PassLedger(dict):
    """Statistics drawn in one ``shared_passes()`` block, keyed by request;
    ``drawn`` and ``reused`` count the requests that drew and that did not,
    and ``kept_bytes`` is set on exit to the array bytes the block held."""

    drawn = reused = kept_bytes = 0


# The ledger of the innermost open block; a context variable, so threads
# and tasks running blocks of their own never share one.
_ledger: ContextVar[Optional[PassLedger]] = ContextVar("_ledger", default=None)


@contextlib.contextmanager
def shared_passes():
    """Draw each distinct ``stream_statistics`` request once inside the block.

    Every block yields a fresh ledger and drops its entries on exit, so no
    block sees another's statistics; outside a block every request draws.
    """
    ledger = PassLedger()
    token = _ledger.set(ledger)
    try:
        yield ledger
    finally:
        _ledger.reset(token)
        ledger.kept_bytes = sum(array.nbytes for stats in ledger.values()
                                for array in stats if array is not None)
        ledger.clear()


def stream_statistics(spec: DgpSpec, reps: int, seed: int, purpose: int,
                      scheme: Optional[BlockScheme] = None,
                      mult: Optional[MultiplierSpec] = None,
                      copies: bool = False, means: bool = False) -> StreamStatistics:
    """Statistics of replications 0..reps-1 of the panel stream ``purpose``.

    Replication r reads the panel substream (seed, panel stream, purpose, r)
    and the multipliers of ``batch_multipliers`` for the same purpose. With
    ``copies`` the statistics are taken on the panel minus its independent
    copy from the copy stream. The (reps, p) column means are kept only with
    ``means``. A ledger entry kept without them is drawn again for a request
    with ``means``, so every consumer of a stream whose means are read should
    ask for them.
    """
    if (scheme is None) != (mult is None):
        raise ValueError("the multiplier statistic needs both a scheme and a multiplier law")
    if scheme is not None and scheme.n != spec.n:
        raise BlockSchemeError(f"scheme is for n={scheme.n} but panels have n={spec.n}")
    key = (spec, reps, seed, purpose, scheme, mult, copies)
    ledger = _ledger.get()
    kept = None if ledger is None else ledger.get(key)
    if kept is not None and (kept.means is not None or not means):
        ledger.reused += 1
        return kept
    max_abs_mean = np.empty(reps)
    mult_max = None if scheme is None else np.empty(reps)
    all_means = np.empty((reps, spec.p)) if means else None
    chunks = reduce_panels(spec, reps, seed, STREAM_PANEL, purpose,
                           None if scheme is None else scheme.b,
                           STREAM_COPY if copies else None)
    for start, chunk_means, sums in chunks:
        stop = start + len(chunk_means)
        max_abs_mean[start:stop] = np.abs(chunk_means).max(axis=-1)
        if means:
            all_means[start:stop] = chunk_means
        if scheme is not None:
            eps = batch_multipliers(mult, scheme.count, seed, purpose, start, stop)
            mult_max[start:stop] = batch_multiplier_max(sums, eps, scheme.n)
        del chunk_means, sums  # release this chunk before the next one is reduced
    stats = StreamStatistics(max_abs_mean, mult_max, all_means)
    for array in stats:
        if array is not None:
            array.setflags(write=False)
    if ledger is not None:
        ledger[key] = stats
        ledger.drawn += 1
    return stats
