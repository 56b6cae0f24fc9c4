"""Deterministic random substreams shared by every Monte Carlo driver.

A master seed plus a path of integer coordinates (stream tag, purpose,
replication index, ...) is mixed by a fixed 64-bit hash into the key of a
counter-based generator. The mapping is a pure function, so results never
depend on call order, worker count, or scheduling.

Keys of a range of replications are computed at once on uint64 arrays, and
Philox4x64-10 is a pure function of (key, counter), so the raw words of a
whole chunk of replications are too. Both agree bit for bit with numpy's
``Philox`` under the same key. Sign draws (multipliers, sign panels) key
each replication apart this way. Gaussian panels are keyed per block of
replications instead: one generator, keyed by the block's first
replication, draws the whole block (see ``processes``), since distinct keys
already give streams of independent quality (Salmon et al., SC 2011).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags. Consumers of the same master seed never share a tag.
STREAM_PANEL = 1
STREAM_COPY = 2
STREAM_MULTIPLIER = 3
STREAM_GAUSSIAN = 4

# Purpose coordinates inserted after the stream tag by the verification
# drivers, so that e.g. the chains and the tail remainders of one run draw
# disjoint panels from a single master seed.
PURPOSE_DEFAULT = 0
PURPOSE_LHS = 1
PURPOSE_MID = 2
PURPOSE_TAIL = 4
PURPOSE_NORM = 5


# SplitMix64 constants (Steele, Lea and Flood, OOPSLA 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SECOND_WORD = np.uint64(0xA5A5A5A5A5A5A5A5)

# Philox4x64-10 multipliers and key increments (Salmon et al., SC 2011).
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SIGN_BIT32 = np.uint32(1 << 31)


def _mix(z):
    """SplitMix64 finalizer on uint64 values, wrapping modulo 2**64."""
    with np.errstate(over="ignore"):
        z = z + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _word(value: int) -> np.uint64:
    return np.uint64(int(value) & _MASK64)


def _key_words(master_seed: int, *path) -> np.ndarray:
    """Philox key of ``path`` under ``master_seed``, shape (..., 2).

    A path coordinate may be a uint64 array, which gives one key per entry.
    """
    word = _mix(_word(master_seed))
    for coordinate in path:
        word = _mix(word ^ _mix(coordinate))
    return np.stack([word, _mix(word ^ _SECOND_WORD)], axis=-1)


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream at ``path`` under ``master_seed``.

    Identical arguments always produce an identically-seeded generator.
    Distinct paths produce streams with independent-quality output (Philox
    keys differ by at least one mixed word).
    """
    key = _key_words(master_seed, *(_word(c) for c in path))
    return np.random.Generator(np.random.Philox(key=key))


def substream_keys(master_seed: int, stream: int, purpose: int,
                   start: int, stop: int) -> np.ndarray:
    """Philox keys of replications start..stop-1, shape (stop - start, 2).

    Row r - start is the key of substream(master_seed, stream, purpose, r).
    """
    index = np.arange(start, stop, dtype=np.uint64)
    return _key_words(master_seed, _word(stream), _word(purpose), index)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product m * x, from 32-bit halves."""
    m_hi, m_lo = m >> np.uint64(32), m & _LOW32
    x_hi, x_lo = x >> np.uint64(32), x & _LOW32
    low_low = m_lo * x_lo
    mid = m_hi * x_lo + (low_low >> np.uint64(32))
    cross = m_lo * x_hi + (mid & _LOW32)
    high = m_hi * x_hi + (mid >> np.uint64(32)) + (cross >> np.uint64(32))
    return high, m * x


def philox_words(keys: np.ndarray, words: int) -> np.ndarray:
    """The first ``words`` raw outputs of Philox4x64-10 under each key.

    Row i equals ``np.random.Philox(key=keys[i]).random_raw(words)``: block j
    of four words encrypts the counter (j + 1, 0, 0, 0), as numpy increments
    the counter before each block. Shape (len(keys), words), dtype uint64.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    blocks = -(-words // 4)
    k0, k1 = keys[:, 0:1], keys[:, 1:2]
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros_like(c0)
    with np.errstate(over="ignore"):
        for round_ in range(_PHILOX_ROUNDS):
            if round_:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    out = np.empty((len(keys), blocks, 4), dtype=np.uint64)
    for lane, c in enumerate((c0, c1, c2, c3)):
        out[:, :, lane] = c
    return out.reshape(len(keys), 4 * blocks)[:, :words]


def philox_signs(keys: np.ndarray, count: int) -> np.ndarray:
    """Random signs under each key, shape (len(keys), count).

    Row i equals ``2.0 * Generator(Philox(key=keys[i])).integers(0, 2,
    size=count) - 1.0``: numpy's bounded integers on {0, 1} take Lemire's
    method on 32-bit words, which never rejects for this range and returns
    the top bit of each word, and each raw 64-bit word gives two, low half
    first.
    """
    halves = philox_words(keys, -(-count // 2)).astype("<u8", copy=False).view("<u4")
    return np.where(halves[:, :count] >= _SIGN_BIT32, 1.0, -1.0)
