"""Whole panels for the tests, drawn apart from the estimators' draw path."""

import math

import numpy as np

from blocksym import processes
from blocksym.processes import DEFAULT_CHUNK
from blocksym.seeding import substream


def block_bounds(spec, start, stop):
    """The (first, end) of each block that holds a replication in start..stop-1.

    The bounds of ``processes.reduce_panels``: blocks of ``_BLOCK_BYTES`` of
    panel (at least one replication) from the start of each
    ``DEFAULT_CHUNK``, the last block of a chunk cut at the chunk's end.
    """
    block = max(1, processes._BLOCK_BYTES // (spec.n * spec.p * 8))
    bounds = []
    for chunk in range(start - start % DEFAULT_CHUNK, stop, DEFAULT_CHUNK):
        for first in range(chunk, chunk + DEFAULT_CHUNK, block):
            end = min(first + block, chunk + DEFAULT_CHUNK)
            if first < stop and end > start:
                bounds.append((first, end))
    return bounds


def equicorrelated(g, c):
    """Standard normals ``g`` mapped along their last axis by the symmetric
    square root of (1 - c) I + c 11^T, whose eigenvalues are 1 + (p - 1) c
    along the all-ones vector and 1 - c across it."""
    if c == 0.0:
        return g
    across, along = math.sqrt(1.0 - c), math.sqrt(1.0 + (g.shape[-1] - 1) * c)
    return across * g + (along - across) * g.mean(axis=-1, keepdims=True)


def gaussian_block(spec, rng, size):
    """``size`` Gaussian-kind panels drawn whole from the generator ``rng``.

    The block's normals go in C order: iid panels, or a linear process's
    longer innovations, or for var1 kinds all initial states and then all
    innovations, each equicorrelated by ``cross_corr``.
    """
    n, p, lags = spec.n, spec.p, len(spec.coeffs) - 1

    def draw(*shape):
        return equicorrelated(rng.standard_normal((size, *shape)), spec.cross_corr)

    if spec.kind == "iid_gaussian":
        return draw(n, p)
    if spec.kind == "linear_process":
        e = draw(n + lags, p)
        return sum(a * e[:, lags - j : lags - j + n] for j, a in enumerate(spec.coeffs))
    prev = draw(p) / math.sqrt(1.0 - spec.phi**2)
    e = draw(n, p)
    x = np.empty_like(e)
    for t in range(n):
        prev = spec.phi * prev + e[:, t]
        x[:, t] = prev
    if spec.kind == "truncated_var1":
        np.clip(x, -spec.truncation, spec.truncation, out=x)
    return x


def sign_panel(spec, rng):
    """One sign-kind panel from its replication's own generator (numpy's
    integers on {0, 1})."""
    n, p, lags = spec.n, spec.p, len(spec.coeffs) - 1
    if spec.kind == "bounded_rademacher":
        return spec.scale * (2.0 * rng.integers(0, 2, size=(n, p)) - 1.0)
    e = 2.0 * rng.integers(0, 2, size=(n + lags, p)) - 1.0
    return sum(a * e[lags - j : lags - j + n] for j, a in enumerate(spec.coeffs))


def draw_panels(spec, seed, stream, purpose, start, stop):
    """Panels of replications start..stop-1, shape (stop - start, n, p).

    A reference for ``processes.reduce_panels`` built on numpy's own calls.
    Sign kinds read each replication r from the substream (seed, stream,
    purpose, r). Gaussian kinds draw each whole block, with the bounds of
    ``block_bounds``, from the substream of its first replication, and keep
    the rows in start..stop-1.
    """
    out = np.empty((stop - start, spec.n, spec.p))
    if processes._signs(spec):
        for r in range(start, stop):
            out[r - start] = sign_panel(spec, substream(seed, stream, purpose, r))
        return out
    for first, end in block_bounds(spec, start, stop):
        panels = gaussian_block(spec, substream(seed, stream, purpose, first), end - first)
        lo, hi = max(first, start), min(end, stop)
        out[lo - start : hi - start] = panels[lo - first : hi - first]
    return out
