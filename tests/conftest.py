"""Whole panels for the tests, drawn apart from the estimators' draw path."""

import numpy as np

from blocksym import processes
from blocksym.seeding import substream_keys


def draw_panels(spec, seed, stream, purpose, start, stop):
    """Panels of replications start..stop-1, shape (stop - start, n, p).

    Replication r reads the substream (seed, stream, purpose, r). The one
    filler per kind fills the whole range serially, with no blocks, chunks
    or draw pool, so it is a reference for ``processes.reduce_panels``.
    """
    out = np.empty((stop - start, spec.n, spec.p))
    keys = substream_keys(seed, stream, purpose, start, stop)
    processes._fill(spec, processes._cross_chol(spec), keys, out)
    return out
