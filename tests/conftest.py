"""Whole panels for the tests, drawn apart from the estimators' draw path,
and the passes of a run's streams, drawn as ``cli.run_experiment`` draws them."""

import math

import numpy as np

from blocksym import blocking, processes
from blocksym.blocking import MaxBelow, MultiplierSpec, PowerSums
from blocksym.processes import MAX_BLOCK_REPS, marginal_spec
from blocksym.seeding import (
    PURPOSE_MID,
    PURPOSE_NORM,
    PURPOSE_TAIL,
    STREAM_MULTIPLIER,
    generator,
    substream,
    substream_keys,
)
from blocksym.verify import theorem1_bound, verify_prop1, verify_prop2

RADEMACHER = MultiplierSpec("rademacher")


def block_bounds(spec, start, stop):
    """The (first, end) of each block that holds a replication in start..stop-1.

    The bounds of a pass of ``blocking.stream_statistics``: blocks of L
    replications from replication 0, L being ``processes._BLOCK_BYTES`` of
    panel, at least one replication and at most ``MAX_BLOCK_REPS``, read at
    call time as ``processes._block_reps`` reads them.
    """
    block = min(MAX_BLOCK_REPS, max(1, processes._BLOCK_BYTES // (spec.n * spec.p * 8)))
    return [(first, first + block) for first in range(start - start % block, stop, block)]


def batch_multipliers(mult, count, seed, purpose, start, stop):
    """Multipliers of the block of replications start..stop-1, shape
    (stop - start, count), as a pass draws them (``blocking._multipliers``)
    from the key of the substream (seed, multiplier stream, purpose, start)
    of the block's first replication."""
    key = substream_keys(seed, STREAM_MULTIPLIER, purpose, range(start, start + 1))[0]
    return blocking._multipliers(mult, generator(key), stop - start, count)


def subexp_total_bound(q, r, phi, rho_sum, p, n, M_n, U):
    """Power/sub-exponential combined upper bound as a function of U,

    2**(q-1) * rho_sum * U**q
        + 2**(q-1) * (ln p / (n**phi ln ln p))**((r-1)/r) * M_n**q / U**(phi (r-1)/r),

    the objective that ``remainders.optimal_truncation`` minimizes exactly."""
    log_p = math.log(p)
    s = phi * (r - 1.0) / r
    tail_factor = (log_p / (n**phi * math.log(log_p))) ** ((r - 1.0) / r)
    return 2.0 ** (q - 1.0) * (rho_sum * U**q + tail_factor * M_n**q / U**s)


def pass_multipliers(spec, mult, count, seed, purpose, start, stop):
    """Multipliers of replications start..stop-1 as a pass of ``spec`` draws
    them, shape (stop - start, count): each block's rows from the generator
    of its first replication."""
    rows = [batch_multipliers(mult, count, seed, purpose, first, min(end, stop))
            [max(first, start) - first:]
            for first, end in block_bounds(spec, start, stop)]
    return np.concatenate(rows) if rows else np.empty((0, count))


def equicorrelated(g, c):
    """Standard normals ``g`` mapped along their last axis by the symmetric
    square root of (1 - c) I + c 11^T, whose eigenvalues are 1 + (p - 1) c
    along the all-ones vector and 1 - c across it."""
    if c == 0.0:
        return g
    across, along = math.sqrt(1.0 - c), math.sqrt(1.0 + (g.shape[-1] - 1) * c)
    return across * g + (along - across) * g.mean(axis=-1, keepdims=True)


def block_panels(spec, rng, size):
    """``size`` panels drawn whole from the generator ``rng``, shape
    (size, n, p).

    The block's draws are read time-major, row t of every panel before row
    t + 1: iid kinds as one (n, size, p) array; a linear process's longer
    innovations as one (n + lags, size, p) array; for var1 kinds all initial
    states and then all innovations. Signs are numpy's int8 integers on
    {0, 1} mapped to -1 and +1 (times ``scale`` for bounded_rademacher);
    normals are equicorrelated by ``cross_corr``.
    """
    n, p, lags = spec.n, spec.p, len(spec.coeffs) - 1

    def draw(*shape):
        if spec.kind == "bounded_rademacher":
            return spec.scale * (2.0 * rng.integers(0, 2, size=shape, dtype=np.int8) - 1.0)
        if spec.kind == "linear_process" and spec.innovation == "rademacher":
            return 2.0 * rng.integers(0, 2, size=shape, dtype=np.int8) - 1.0
        return equicorrelated(rng.standard_normal(shape), spec.cross_corr)

    if spec.kind in ("iid_gaussian", "bounded_rademacher"):
        return draw(n, size, p).transpose(1, 0, 2)
    if spec.kind == "linear_process":
        e = draw(n + lags, size, p)
        x = sum(a * e[lags - j : lags - j + n] for j, a in enumerate(spec.coeffs))
        return x.transpose(1, 0, 2)
    prev = draw(size, p) / math.sqrt(1.0 - spec.phi**2)
    e = draw(n, size, p)
    x = np.empty_like(e)
    for t in range(n):
        prev = spec.phi * prev + e[t]
        x[t] = prev
    if spec.kind == "truncated_var1":
        np.clip(x, -spec.truncation, spec.truncation, out=x)
    return x.transpose(1, 0, 2)


def fill_block(spec, rng, wanted, full):
    """The first ``wanted`` panels of a block of ``full`` drawn from ``rng``,
    time-major, shape (n, wanted, p): the chunks of the chunk source
    ``processes._chunks`` (of the default shape without a block length),
    gathered whole."""
    out = np.empty((spec.n, wanted, spec.p))
    chunk = np.empty(processes._chunk_shape(spec, None, full))
    for t, x in processes._chunks(spec, rng, wanted, full, chunk):
        out[t : t + len(x)] = x
    return out


def draw_panels(spec, seed, stream, purpose, start, stop):
    """Panels of replications start..stop-1, shape (stop - start, n, p).

    A reference for the panels of a pass built on numpy's own calls:
    each whole block, with the bounds of ``block_bounds``, is drawn from the
    substream (seed, stream, purpose, first) of its first replication, and
    the rows in start..stop-1 are kept.
    """
    out = np.empty((stop - start, spec.n, spec.p))
    for first, end in block_bounds(spec, start, stop):
        panels = block_panels(spec, substream(seed, stream, purpose, first), end - first)
        lo, hi = max(first, start), min(end, stop)
        out[lo - start : hi - start] = panels[lo - first : hi - first]
    return out


# The passes call ``blocking.stream_statistics`` through the module, so a
# test that patches it there changes what they draw.


def mid_pass(spec, scheme, reps, seed, mult=RADEMACHER):
    """The mid stream's pass, with the multiplier statistic of ``scheme``."""
    return blocking.stream_statistics(spec, reps, seed, PURPOSE_MID, scheme, mult)


def tail_pass(spec, reps, seed, *reductions, scheme=None, mult=RADEMACHER):
    """The tail stream's pass, folding ``reductions``; with ``scheme``, drawn
    with the multiplier statistic of ``scheme`` and ``mult``, as a run draws
    it for rho."""
    return blocking.stream_statistics(spec, reps, seed, PURPOSE_TAIL, scheme,
                                      None if scheme is None else mult, reductions=reductions)


def marginal_pass(spec, reps, seed):
    """The marginal rows: one-row panels of ``spec``'s marginal law."""
    return blocking.stream_statistics(marginal_spec(spec), reps, seed, PURPOSE_NORM)


def run_prop1(spec, scheme, psi, U, reps, rho, seed):
    """``verify_prop1`` on its own mid pass of ``spec`` under ``scheme``."""
    return verify_prop1(psi, U, rho, mid=mid_pass(spec, scheme, reps, seed))


def run_prop2(spec, scheme, psi, U, r, reps, rho, seed):
    """``verify_prop2`` on its own mid, tail and marginal passes of ``spec``."""
    return verify_prop2(psi, U, r, rho,
                        mid=mid_pass(spec, scheme, reps, seed),
                        tail=tail_pass(spec, reps, seed, MaxBelow(U)),
                        marginal=marginal_pass(spec, reps, seed))


def run_theorem1(spec, scheme, q, r, U, reps, rho, seed, tail_params=None):
    """``theorem1_bound`` with sign multipliers on its own passes of ``spec``:
    subexp with ``tail_params``, else lq on a tail pass that folds the power
    sums at q."""
    if tail_params is None:
        source = {"tail": tail_pass(spec, reps, seed, PowerSums(q))}
    else:
        source = {"tail_params": tail_params}
    return theorem1_bound(q, r, U, rho, mid=mid_pass(spec, scheme, reps, seed),
                          marginal=marginal_pass(spec, reps, seed), **source)
