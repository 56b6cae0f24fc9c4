"""Block schemes, block sums, multiplier draws, and the max statistics.

The sample {1..n} is partitioned into count = n/b contiguous blocks of equal
length b. Multipliers are drawn once per block and expanded to a
piecewise-constant weight per time point. The two statistics of interest are
the largest absolute column mean of a panel and its block-multiplier
counterpart max_i |(1/n) sum_l eps_l S[l, i]|.

Every estimator, the Gaussian comparison and the exact oracle compute these
through the ``batch_*`` kernels, which act on stacks of panels along any
leading axes. The single-panel functions validate their input and make one
kernel call, so single and batched results agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processes import PanelSample
from .seeding import STREAM_MULTIPLIER, substream, substream_iter

MULTIPLIER_KINDS = ("rademacher", "uniform_sym")


class BlockSchemeError(ValueError):
    pass


@dataclass(frozen=True)
class BlockScheme:
    """Equal-length contiguous partition of {0..n-1} into count blocks."""

    n: int
    b: int
    count: int
    blocks: tuple

    def describe(self) -> str:
        spans = " ".join(f"[{blk.start + 1}..{blk.stop}]" for blk in self.blocks)
        return f"BlockScheme(n={self.n}, b={self.b}, count={self.count}): {spans}"


@dataclass(frozen=True)
class MultiplierSpec:
    """Bounded, zero-mean, unit-variance multiplier law.

    ``rademacher`` puts mass 1/2 on each of -1 and +1; ``uniform_sym`` is
    uniform on [-sqrt(3), sqrt(3)]. Both have |eps| <= bound almost surely.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in MULTIPLIER_KINDS:
            raise ValueError(f"unknown multiplier kind {self.kind!r}")

    @property
    def bound(self) -> float:
        return 1.0 if self.kind == "rademacher" else math.sqrt(3.0)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MultiplierSpec":
        return cls(**obj)


def make_blocks(n: int, b: int) -> BlockScheme:
    """Blocks of length b covering {0..n-1}; b must divide n exactly."""
    if not 1 <= b <= n:
        raise BlockSchemeError(f"block size must satisfy 1 <= b <= n, got b={b}, n={n}")
    if n % b != 0:
        raise BlockSchemeError(f"block size must divide n (n={n}, b={b})")
    count = n // b
    blocks = tuple(range(l * b, (l + 1) * b) for l in range(count))
    return BlockScheme(n=n, b=b, count=count, blocks=blocks)


def batch_block_sums(panels: np.ndarray, scheme: BlockScheme) -> np.ndarray:
    """Within-block column sums over leading axes: (..., n, p) -> (..., count, p)."""
    lead, p = panels.shape[:-2], panels.shape[-1]
    return panels.reshape(*lead, scheme.count, scheme.b, p).sum(axis=-2)


def batch_max_abs_mean(panels: np.ndarray) -> np.ndarray:
    """Largest absolute column mean over leading axes: (..., n, p) -> (...)."""
    return np.abs(panels.mean(axis=-2)).max(axis=-1)


def batch_multiplier_max(sums: np.ndarray, eps: np.ndarray, n: int) -> np.ndarray:
    """max_i |(1/n) sum_l eps_l S[l, i]| over leading axes.

    ``sums`` has shape (..., count, p) and ``eps`` shape (..., count); their
    leading axes broadcast, so eps of shape (E, 1, count) against sums of
    shape (C, count, p) gives every multiplier vector on every panel, (E, C).
    """
    return np.abs(np.einsum("...l,...lp->...p", eps, sums) / n).max(axis=-1)


def batch_multipliers(mult: MultiplierSpec, count: int, seed: int, purpose: int,
                      start: int, stop: int) -> np.ndarray:
    """Multipliers of replications start..stop-1, shape (stop - start, count).

    Replication r draws from the substream (seed, multiplier stream, purpose,
    r), so a replication's multipliers do not depend on the batch it is in.
    """
    rngs = substream_iter(seed, STREAM_MULTIPLIER, purpose, start, stop)
    return np.stack([draw_multipliers_with(mult, count, rng) for rng in rngs])


def draw_multipliers(spec: MultiplierSpec, count: int, seed: int) -> np.ndarray:
    """iid multiplier draws, deterministic in the seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = substream(seed, STREAM_MULTIPLIER)
    return draw_multipliers_with(spec, count, rng)


def draw_multipliers_with(spec: MultiplierSpec, count: int, rng) -> np.ndarray:
    if spec.kind == "rademacher":
        return 2.0 * rng.integers(0, 2, size=count) - 1.0
    half = math.sqrt(3.0)
    return rng.uniform(-half, half, size=count)


def _checked_eps(eps, scheme: BlockScheme) -> np.ndarray:
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (scheme.count,):
        raise BlockSchemeError(
            f"expected {scheme.count} multipliers, got shape {eps.shape}"
        )
    return eps


def expand_multipliers(eps: np.ndarray, scheme: BlockScheme) -> np.ndarray:
    """Per-time weights, constant on blocks: eta[t] = eps[l] for t in block l."""
    return np.repeat(_checked_eps(eps, scheme), scheme.b)


def block_sums(sample: PanelSample, scheme: BlockScheme) -> np.ndarray:
    """Matrix of within-block column sums, shape (count, p)."""
    if scheme.n != sample.n:
        raise BlockSchemeError(
            f"scheme is for n={scheme.n} but panel has n={sample.n}"
        )
    return batch_block_sums(sample.data, scheme)


def max_abs_mean(sample: PanelSample) -> float:
    """Largest absolute column mean of the panel."""
    return float(batch_max_abs_mean(sample.data))


def multiplier_max_abs_mean(
    sample: PanelSample, scheme: BlockScheme, eps: np.ndarray
) -> float:
    """max_i |(1/n) sum_l eps_l S[l, i]|, the block-multiplier mean statistic.

    Identical to max_abs_mean applied to the panel with each row scaled by
    its expanded multiplier.
    """
    sums = block_sums(sample, scheme)
    return float(batch_multiplier_max(sums, _checked_eps(eps, scheme), scheme.n))
