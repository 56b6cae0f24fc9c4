"""Block schemes, block sums, multiplier draws, and the max statistics.

The sample {1..n} is partitioned into count = n/b contiguous blocks of equal
length b; a ``BlockScheme`` holds only n and b, and the block sums apply
the partition. Multipliers are drawn once per block and expanded to a
piecewise-constant weight per time point. The two statistics of interest are
the largest absolute column mean of a panel and its block-multiplier
counterpart max_i |(1/n) sum_l eps_l S[l, i]|.

Every estimator, the Gaussian comparison and the exact oracle compute these
through the ``batch_*`` kernels, which act on stacks of panels along any
leading axes; the blocks of a pass, drawn on draw-pool threads, call their
private cores.

Monte Carlo estimators read their panels only through ``stream_statistics``,
the one function that schedules a pass. Each call draws one pass of a
panel stream and reduces it to per-replication vectors: the largest absolute
column mean and, when a block scheme is named, the block-multiplier maximum
and the quadratic block term max_i (1/n) sum_l S[l, i]^2 of theorem1. A call
may also name a tuple of reductions of the column means (``PowerSums``,
``Exceedances`` and ``MaxBelow``, which the remainders read; a run folds
them all in one pass of the tail stream), which are folded in block by
block, in block order, while the stream is drawn, so no (reps, p) means are
kept; a read of a reduction that the pass did not fold raises an error
naming it.

A pass keys its panels, copies and multipliers with one ``substream_keys``
call each, at the first replications of its blocks (``processes``). The
calling thread builds each block's generators (``seeding.generator``; the
pool threads call no public function), draws its multipliers and submits
the block to a pool of ``draw_workers()`` threads; the pool thread draws
its panels (``processes._draw_block``), writes its per-replication values
and returns its means. With ``draw_workers() + 1`` blocks in flight the calling thread
waits for the oldest and folds its means into the reductions, so they fold
in block order on the calling thread, a pass holds the means and
multipliers of only that many blocks, and the output is bit-identical for
any worker count. Nothing is cached: a run draws each stream once and hands
its statistics to every check that reads them. Inside ``recorded_passes()``
each pass appends its request, its wall time and its blocks' wall time
summed over the threads that ran them, in draw order.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np

from .processes import DgpSpec, Spec, _block_reps, _block_sums, _draw_block
from .seeding import STREAM_COPY, STREAM_MULTIPLIER, STREAM_PANEL, generator, substream_keys

MULTIPLIER_KINDS = ("rademacher", "uniform_sym")


class BlockSchemeError(ValueError):
    pass


@dataclass(frozen=True)
class BlockScheme(Spec):
    """Equal-length contiguous partition of {0..n-1} into count blocks."""

    n: int
    b: int

    def __post_init__(self):
        if not 1 <= self.b <= self.n:
            raise BlockSchemeError(
                f"block size must satisfy 1 <= b <= n, got b={self.b}, n={self.n}")
        if self.n % self.b != 0:
            raise BlockSchemeError(f"block size must divide n (n={self.n}, b={self.b})")

    @property
    def count(self) -> int:
        return self.n // self.b


@dataclass(frozen=True)
class MultiplierSpec(Spec):
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


def make_blocks(n: int, b: int) -> BlockScheme:
    """Blocks of length b covering {0..n-1}; b must divide n exactly."""
    return BlockScheme(n=n, b=b)


def batch_block_sums(panels: np.ndarray, scheme: BlockScheme) -> np.ndarray:
    """Within-block column sums over leading axes: (..., n, p) -> (..., count, p)."""
    if panels.shape[-2] != scheme.n:
        raise BlockSchemeError(f"scheme is for n={scheme.n} but panels have n={panels.shape[-2]}")
    return _block_sums(panels, scheme.b)


def batch_max_abs_mean(panels: np.ndarray) -> np.ndarray:
    """Largest absolute column mean over leading axes: (..., n, p) -> (...)."""
    return _max_last(np.abs(panels.mean(axis=-2)))


def batch_multiplier_max(sums: np.ndarray, eps: np.ndarray, n: int) -> np.ndarray:
    """max_i |(1/n) sum_l eps_l S[l, i]| over leading axes.

    ``sums`` has shape (..., count, p) and ``eps`` shape (..., count); their
    leading axes broadcast, so eps of shape (E, 1, count) against sums of
    shape (C, count, p) gives every multiplier vector on every panel, (E, C).
    """
    if eps.shape[-1] != sums.shape[-2]:
        raise BlockSchemeError(
            f"expected {sums.shape[-2]} multipliers, got shape {eps.shape}")
    return _multiplier_max(sums, eps, n)


def _multiplier_max(sums: np.ndarray, eps: np.ndarray, n: int) -> np.ndarray:
    """``batch_multiplier_max`` without the shape check; private, so that the
    folds run on draw-pool threads may call it. Each row's result does not
    depend on how many rows come with it."""
    return _max_last(np.abs(np.einsum("...l,...lp->...p", eps, sums) / n))


def _max_last(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)``, bit for bit: a maximum does not depend on the
    order it is taken in, and NaN propagates either way (only which of a
    row's distinct NaN bit patterns comes out may differ). numpy reduces a
    short last axis row by row, an order of magnitude slower at (2048, 2)
    than folding its columns into one output with ``np.maximum``; past 32
    entries, or over few rows, the column loop costs more than it saves."""
    if 2 <= x.shape[-1] <= 32 and x.size >= 128 * x.shape[-1]:
        out = x[..., 0].copy()
        for j in range(1, x.shape[-1]):
            np.maximum(out, x[..., j], out=out)
        return out
    return x.max(axis=-1)


def _multipliers(mult: MultiplierSpec, key: np.ndarray, rows: int, count: int) -> np.ndarray:
    """``rows`` rows of ``count`` multipliers from ``seeding.generator(key)``,
    row by row: row i is row i of numpy's int8 ``integers(0, 2)`` mapped to
    -1 and +1 (Rademacher) or of ``uniform(-sqrt(3), sqrt(3))``, drawn with
    ``count`` columns. So a replication's multipliers depend on the first
    replication of its block, not on how many the block holds."""
    rng = generator(key)
    shape = (rows, count)
    if mult.kind == "uniform_sym":
        half = math.sqrt(3.0)
        return rng.uniform(-half, half, size=shape)
    out = np.multiply(rng.integers(0, 2, size=shape, dtype=np.int8), 2.0)
    out -= 1.0
    return out


@dataclass(frozen=True)
class PowerSums:
    """Per-coordinate sums of |m|**q and |m|**(2q) at q = ``order``, shape (2, p)."""

    order: float

    def empty(self, reps: int, p: int) -> np.ndarray:
        return np.zeros((2, p))

    def add(self, out: np.ndarray, start: int, means: np.ndarray) -> None:
        # One (c, p) buffer, powered in place; ``**=`` takes the fast paths
        # of ``**``, so the sums are bit for bit those of |m|**q and its square.
        powered = np.abs(means)
        powered **= self.order
        out[0] += powered.sum(axis=0)
        powered **= 2
        out[1] += powered.sum(axis=0)


@dataclass(frozen=True)
class Exceedances:
    """Per-level, per-coordinate counts of |m_i| >= level, shape (len(levels), p)."""

    levels: tuple

    def empty(self, reps: int, p: int) -> np.ndarray:
        return np.zeros((len(self.levels), p), dtype=np.int64)

    def add(self, out: np.ndarray, start: int, means: np.ndarray) -> None:
        # Level by level, so no (levels, c, p) boolean array is built.
        absmeans = np.abs(means)
        for counts, level in zip(out, self.levels):
            counts += np.count_nonzero(absmeans >= level, axis=0)


@dataclass(frozen=True)
class MaxBelow:
    """Per replication, the largest |m_i| not above U (0 if none), shape (reps,)."""

    U: float

    def empty(self, reps: int, p: int) -> np.ndarray:
        return np.empty(reps)

    def add(self, out: np.ndarray, start: int, means: np.ndarray) -> None:
        # One (c, p) buffer: |m|, zeroed in place above U.
        absmeans = np.abs(means)
        absmeans[absmeans > self.U] = 0.0
        out[start : start + len(means)] = _max_last(absmeans)


# A reduction of a stream's column means: ``empty(reps, p)`` gives its result
# array and ``add(out, start, means)`` folds in the (c, p) means of the
# block of replications from ``start``, on the calling thread.
MeanReduction = Union[PowerSums, Exceedances, MaxBelow]


class StreamStatistics(NamedTuple):
    """Read-only statistics of one pass of a panel stream: the largest
    absolute column mean, as ``batch_max_abs_mean`` (reps,); when a block
    scheme was named, the block-multiplier maximum and the quadratic block
    term max_i (1/n) sum_l S[l, i]^2 (reps,) each, else None; the result of
    each reduction the pass folded, keyed by the reduction (see ``read``);
    and the request the pass was drawn for: its spec, seed, purpose, block
    scheme and multiplier law (None without multipliers), and whether it
    took differences with the copy stream (see ``require``)."""

    max_abs_mean: np.ndarray
    mult_max: Optional[np.ndarray]
    quad: Optional[np.ndarray]
    reduced: dict
    spec: DgpSpec
    seed: int
    purpose: int
    scheme: Optional[BlockScheme]
    mult: Optional[MultiplierSpec]
    copies: bool

    @property
    def reps(self) -> int:
        return len(self.max_abs_mean)

    def read(self, reduction: MeanReduction) -> np.ndarray:
        """The result of ``reduction``; a ``ValueError`` names it when the
        pass did not fold it."""
        if reduction not in self.reduced:
            raise ValueError(f"the pass folded no {reduction}; it folded "
                             f"{list(self.reduced) or 'no reduction'}")
        return self.reduced[reduction]

    def require(self, role: str, spec: DgpSpec, seed: int, purpose: int) -> None:
        """Check that the pass is the stream ``purpose`` of ``spec`` at
        ``seed``, drawn without copies; a ``ValueError`` names the request of
        the ``role`` pass and the one it was read for."""
        want = {"spec": spec, "seed": seed, "purpose": purpose, "copies": False}
        have = {key: getattr(self, key) for key in want}
        if have != want:
            raise ValueError(f"the {role} pass was drawn for {_describe(have)}, "
                             f"but it is read as {_describe(want)}")


def _describe(request: dict) -> str:
    """A pass request in words, for the messages of ``require``."""
    words = (f"purpose {request['purpose']} of {request['spec'].to_json_dict()} "
             f"at seed {request['seed']}")
    return words + (", differences with the copy stream" if request["copies"] else "")


# The records of the innermost open ``recorded_passes()`` block; a context
# variable, so threads and tasks running blocks of their own never share one.
_records: ContextVar[Optional[list]] = ContextVar("_records", default=None)


@contextlib.contextmanager
def recorded_passes():
    """Yield a list to which every pass drawn inside the block appends what
    ``run_meta.json`` says of it: its request, its wall time (``seconds``)
    and its blocks' wall time summed over the threads that ran them
    (``block_seconds``), so ``block_seconds / (draw_workers * seconds)`` is
    the draw pool's utilisation."""
    records = []
    token = _records.set(records)
    try:
        yield records
    finally:
        _records.reset(token)


def draw_workers() -> int:
    """Threads that draw blocks: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _draw_pool(workers: int) -> ThreadPoolExecutor:
    """The draw pool, created on first use (and again if the count changes)."""
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="blocksym-draw")


def stream_statistics(spec: DgpSpec, reps: int, seed: int, purpose: int,
                      scheme: Optional[BlockScheme] = None,
                      mult: Optional[MultiplierSpec] = None,
                      copies: bool = False,
                      reductions: tuple = ()) -> StreamStatistics:
    """Statistics of replications 0..reps-1 of the panel stream ``purpose``,
    from one pass drawn on every call.

    Replication r reads the panel and multiplier streams (seed, stream,
    purpose) block by block, as the module docstring describes. With
    ``copies`` the statistics are taken on the panel minus its independent
    copy, the same replication of the copy stream. Each of ``reductions``
    folds each block's column means into its result, in block order, so no
    (reps, p) means are kept; a reduction named twice is folded once. If a
    block or a reduction raises, the blocks not yet started are cancelled,
    the started ones waited for, and the exception raised: no block runs
    after this returns.
    """
    if (scheme is None) != (mult is None):
        raise ValueError("the multiplier statistic needs both a scheme and a multiplier law")
    if scheme is not None and scheme.n != spec.n:
        raise BlockSchemeError(f"scheme is for n={scheme.n} but panels have n={spec.n}")
    started = time.perf_counter()
    max_abs_mean = np.empty(reps)
    mult_max = None if scheme is None else np.empty(reps)
    quad = None if scheme is None else np.empty(reps)
    reduced = {part: part.empty(reps, spec.p) for part in reductions}
    b = None if scheme is None else scheme.b
    block = _block_reps(spec)
    firsts = range(0, reps, block)
    keys = substream_keys(seed, STREAM_PANEL, purpose, firsts)
    copy_keys = substream_keys(seed, STREAM_COPY, purpose, firsts) if copies else None
    mult_keys = None if mult is None else substream_keys(seed, STREAM_MULTIPLIER, purpose, firsts)

    def draw(start, stop, rng, copy_rng, eps):
        # Runs on a draw-pool thread, so it calls only private functions.
        began = time.perf_counter()
        # The block's (n, L, p) panel buffer is held until its statistics
        # are written: freeing it first raised full_suite's peak RSS by about
        # 3 MB in 8 of 24 fresh-process runs (the cause was not verified).
        panels, means, sums = _draw_block(spec, b, stop - start, block, rng, copy_rng)
        max_abs_mean[start:stop] = _max_last(np.abs(means))
        if eps is not None:
            mult_max[start:stop] = _multiplier_max(sums, eps, spec.n)
            # Summed in one order per replication, whatever the block size.
            quad[start:stop] = _max_last(np.einsum("klp,klp->kp", sums, sums)) / spec.n
        del panels
        return means, time.perf_counter() - began

    workers = draw_workers()
    pool = _draw_pool(workers)
    # The (start, future) of each block in flight, oldest first.
    pending = deque()
    block_seconds = 0.0

    def fold_oldest():
        start, future = pending.popleft()
        means, seconds = future.result()
        for part, out in reduced.items():
            part.add(out, start, means)
        return seconds

    try:
        for j, start in enumerate(firsts):
            stop = min(start + block, reps)
            # Built and drawn on the calling thread while the pool draws the
            # blocks in flight.
            rng = generator(keys[j])
            copy_rng = None if copy_keys is None else generator(copy_keys[j])
            eps = (None if mult is None
                   else _multipliers(mult, mult_keys[j], stop - start, scheme.count))
            pending.append((start, pool.submit(draw, start, stop, rng, copy_rng, eps)))
            if len(pending) > workers:
                block_seconds += fold_oldest()
        while pending:
            block_seconds += fold_oldest()
    except BaseException:
        for _, future in pending:
            future.cancel()
        wait([future for _, future in pending])
        raise
    for array in (max_abs_mean, mult_max, quad, *reduced.values()):
        if array is not None:
            array.setflags(write=False)
    records = _records.get()
    if records is not None:
        records.append({"purpose": purpose, "reps": reps, "n": spec.n, "p": spec.p,
                        "multipliers": mult is not None, "copies": copies,
                        "reductions": [type(part).__name__ for part in reduced],
                        "seconds": time.perf_counter() - started,
                        "block_seconds": block_seconds})
    return StreamStatistics(max_abs_mean, mult_max, quad, reduced, spec, seed, purpose,
                            scheme, mult, copies)
