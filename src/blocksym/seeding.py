"""Deterministic random substreams shared by every Monte Carlo driver.

A master seed plus a path of integer coordinates (stream tag, purpose,
replication index, ...) is mixed by a fixed 64-bit hash (SplitMix64) into a
128-bit key. ``generator`` is the one constructor of every draw: it hashes
a key through numpy's ``SeedSequence`` into the 256-bit state of an
``SFC64`` generator. The mapping is a pure function, so results never
depend on call order, worker count, or scheduling.

Every draw follows one keying rule: a block of replications reads one
generator per stream, keyed by the substream of the block's first
replication. The blocks are those of a pass of
``blocking.stream_statistics``, and a block's panels, copies and
multipliers are keyed alike. Distinct keys give independently hashed
256-bit states, and a block's generator reads about 0.5M 64-bit words
(``processes._BLOCK_BYTES`` of panel, plus a var1 kind's initial states, at
most as many again, or a linear process's lags), far below the 2**64 words
that SFC64's counter guarantees before any state repeats, so the chance
that two streams overlap is negligible. The keys of a range of replications, such as the
first replications of a pass's blocks, are mixed at once on uint64 arrays,
one call per stream of a pass. Seeds and coordinates are taken modulo
2**64; the config checks keep seeds in [0, 2**64), so distinct seeds never
alias.
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


def _mix(z):
    """SplitMix64 finalizer on uint64 values; its callers let it wrap modulo
    2**64."""
    z = z + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _word(value: int) -> np.uint64:
    return np.uint64(int(value) & _MASK64)


def _key_words(master_seed: int, *path) -> np.ndarray:
    """Key of ``path`` under ``master_seed``, shape (..., 2).

    A path coordinate may be a uint64 array, which gives one key per entry.
    """
    with np.errstate(over="ignore"):
        word = _mix(_word(master_seed))
        for coordinate in path:
            word = _mix(word ^ _mix(coordinate))
        return np.stack([word, _mix(word ^ _SECOND_WORD)], axis=-1)


def generator(key: np.ndarray) -> np.random.Generator:
    """The generator of ``key``, a uint64 array of two words: numpy's
    ``SFC64`` seeded through ``SeedSequence(key)``. Every draw reads one."""
    return np.random.Generator(np.random.SFC64(key))


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream at ``path`` under ``master_seed``.

    Identical arguments always produce an identically-seeded generator.
    Distinct paths give distinct keys (they differ by at least one mixed
    word), hence independently hashed generator states.
    """
    return generator(_key_words(master_seed, *(_word(c) for c in path)))


def substream_keys(master_seed: int, stream: int, purpose: int,
                   replications: range) -> np.ndarray:
    """Keys of ``replications``, shape (len(replications), 2).

    Row j is the key of substream(master_seed, stream, purpose,
    replications[j]).
    """
    index = np.arange(replications.start, replications.stop, replications.step,
                      dtype=np.uint64)
    return _key_words(master_seed, _word(stream), _word(purpose), index)
