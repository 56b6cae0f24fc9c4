import math
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate
from hypothesis import strategies as st

from blocksym import blocking, processes
from blocksym.blocking import (
    BlockScheme,
    BlockSchemeError,
    MultiplierSpec,
    PowerSums,
    batch_block_sums,
    batch_max_abs_mean,
    batch_multiplier_max,
    make_blocks,
    stream_statistics,
)
from blocksym.processes import (
    KINDS,
    MAX_BLOCK_REPS,
    DgpSpec,
    DgpValidationError,
    longrun_covariance,
)
from blocksym.seeding import (PURPOSE_TAIL, STREAM_COPY, STREAM_MULTIPLIER, STREAM_PANEL,
                              generator, substream, substream_keys)
from conftest import (block_bounds, block_panels, draw_panels, equicorrelated, fill_block,
                      pass_multipliers)

VAR1 = DgpSpec("var1", n=64, p=4, phi=0.5)
RADEMACHER = MultiplierSpec("rademacher")


def stack_panels(spec, reps, seed, stream=STREAM_PANEL):
    """Replications 0..reps-1 as a pass draws them: with b = 1 the block
    sums of ``processes._draw_block`` are the panels."""
    return gather(spec, reps, seed, stream, 0, 1)[2]


def first_key(seed, stream, purpose, first):
    """The key of the block whose first replication is ``first``, which
    ``seeding.generator`` turns into the block's generator: numpy's SFC64
    seeded through ``SeedSequence``."""
    return substream_keys(seed, stream, purpose, range(first, first + 1))[0]


def first_state(seed, stream, purpose, first):
    """The state of the generator of that block before it draws."""
    return fresh_state(generator(first_key(seed, stream, purpose, first)))


def fresh_state(rng):
    """The 256-bit state of an SFC64 generator, as a list of words."""
    return rng.bit_generator.state["state"]["state"].tolist()


def gather(spec, reps, seed, stream, purpose, b=None, copy_stream=None):
    """Replications 0..reps-1 drawn by ``processes._draw_block``, block by
    block over the bounds of ``block_bounds``, gathered into whole arrays.

    Returns the blocks (start, stop), the (reps, p) column means and the
    (reps, n/b, p) block sums (None without ``b``).
    """
    blocks, means, sums = [], [], []
    for first, end in block_bounds(spec, 0, reps):
        stop = min(end, reps)
        copy_rng = (None if copy_stream is None
                    else generator(first_key(seed, copy_stream, purpose, first)))
        block_means, block_sums = processes._draw_block(
            spec, b, stop - first, end - first, generator(first_key(seed, stream, purpose, first)),
            copy_rng)
        blocks.append((first, stop))
        means.append(block_means)
        sums.append(block_sums)
    return blocks, np.concatenate(means), None if b is None else np.concatenate(sums)


def chunked_panels(spec, reps, seed, chunk):
    """The reference panels of ``stack_panels``, drawn ``chunk`` replications
    at a time."""
    return np.concatenate([draw_panels(spec, seed, STREAM_PANEL, 0, start,
                                       min(start + chunk, reps))
                           for start in range(0, reps, chunk)])


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(DgpValidationError, match="kind"):
            DgpSpec("brownian", n=4, p=1)

    def test_nonstationary_phi(self):
        with pytest.raises(DgpValidationError, match="phi"):
            DgpSpec("var1", n=4, p=1, phi=1.0)

    def test_bad_dims(self):
        with pytest.raises(DgpValidationError, match="n"):
            DgpSpec("iid_gaussian", n=0, p=1)
        with pytest.raises(DgpValidationError, match="p"):
            DgpSpec("iid_gaussian", n=1, p=0)

    def test_empty_coeffs(self):
        with pytest.raises(DgpValidationError, match="coeffs"):
            DgpSpec("linear_process", n=4, p=1, coeffs=())

    def test_cross_corr_range(self):
        with pytest.raises(DgpValidationError, match="cross_corr"):
            DgpSpec("iid_gaussian", n=4, p=3, cross_corr=-0.9)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(kind="bounded_rademacher", n=4, p=1, scale=math.nan), "scale"),
        (dict(kind="iid_gaussian", n=4.5, p=1), "n"),
        (dict(kind="iid_gaussian", n=True, p=1), "n"),
        (dict(kind="iid_gaussian", n=4, p=2.0), "p"),
        (dict(kind="truncated_var1", n=4, p=2, truncation=math.inf), "truncation"),
        (dict(kind="var1", n=4, p=1, phi=math.nan), "phi"),
        (dict(kind="iid_gaussian", n=4, p=3, cross_corr=math.nan), "cross_corr"),
        (dict(kind="linear_process", n=4, p=1, coeffs=(1.0, math.inf)), r"coeffs\[1\]"),
        (dict(kind="var1", n=4, p=1, phi="0.5"), "phi"),
        (dict(kind="linear_process", n=4, p=1, coeffs=5), "coeffs"),
        (dict(kind="linear_process", n=4, p=1, coeffs=(1.0, "0.5")), r"coeffs\[1\]"),
        # Each square is finite, but the variance bound (sum |coeffs|)**2 is not.
        (dict(kind="linear_process", n=4, p=1, coeffs=(1e154, 1e154)), "coeffs"),
        # Integers past the float range, on which math.isfinite raises.
        (dict(kind="var1", n=4, p=1, phi=10**400), "phi"),
        (dict(kind="linear_process", n=4, p=1, coeffs=(1.0, -10**400)), r"coeffs\[1\]"),
    ])
    def test_non_finite_or_non_integer_field_named(self, kwargs, field):
        with pytest.raises(DgpValidationError, match=f"^{field}: "):
            DgpSpec(**kwargs)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec("iid_gaussian", n=2, p=2),
            VAR1,
            DgpSpec("linear_process", n=8, p=2, coeffs=(1.0, 0.5, 0.25)),
            DgpSpec("bounded_rademacher", n=8, p=2),
            DgpSpec("truncated_var1", n=8, p=2, phi=0.5, truncation=3.0),
        ],
    )
    def test_bit_identical(self, spec):
        assert np.array_equal(stack_panels(spec, 3, 11), stack_panels(spec, 3, 11))

    def test_seeds_differ(self):
        assert not np.array_equal(stack_panels(VAR1, 1, 1), stack_panels(VAR1, 1, 2))

    def test_copy_stream_disjoint(self):
        copies = stack_panels(VAR1, 1, 1, stream=STREAM_COPY)
        assert not np.array_equal(stack_panels(VAR1, 1, 1), copies)

    def test_single_scalar_copy(self):
        spec = DgpSpec("iid_gaussian", n=1, p=1)
        assert stack_panels(spec, 1, 2, stream=STREAM_COPY).shape == (1, 1, 1)

    def test_batch_matches_per_rep_streams(self):
        # Drawing the reference a few replications at a time must not change
        # which stream feeds which replication.
        big = stack_panels(VAR1, 10, 3)
        small = chunked_panels(VAR1, 10, 3, chunk=3)
        assert np.array_equal(big, small)

    def test_correlated_var1_independent_of_chunking(self):
        # Each vector is equicorrelated by its own mean, so no row's result
        # depends on how many replications share a chunk.
        spec = DgpSpec("var1", n=8, p=50, phi=0.5, cross_corr=0.05)
        assert np.array_equal(stack_panels(spec, 300, 5),
                              chunked_panels(spec, 300, 5, chunk=7))

    @pytest.mark.parametrize("spec, reps, bound", [
        *[(DgpSpec(kind, n=64, p=8, phi=0.5), 256,
           0.6 if kind == "linear_process" else 0.4) for kind in KINDS],
        (DgpSpec("linear_process", n=64, p=8, coeffs=(1.0, 0.5),
                 innovation="rademacher"), 256, 0.6),
        (DgpSpec("iid_gaussian", n=16, p=4, cross_corr=0.3), 2048, 0.4),
        (DgpSpec("var1", n=32, p=3, phi=0.5, cross_corr=0.2), 2048, 0.4),
        (DgpSpec("truncated_var1", n=16, p=4, phi=0.5, cross_corr=0.3), 2048, 0.4),
    ], ids=[*KINDS, "linear_process-rademacher", "iid_gaussian-correlated",
            "var1-correlated", "truncated_var1-correlated"])
    def test_chunk_source_peak_memory(self, spec, reps, bound, monkeypatch):
        # The chunk source, given all ``reps`` as one time-major block and
        # an eighth of its time rows per chunk, never holds the block,
        # whatever its kind: one reused chunk (1.0 to 1.9 chunks measured,
        # the equicorrelation's mean per vector and var1's carried row
        # beside it), sign panels beside the block's int8 draws (an eighth
        # of its bytes), and linear processes beside their window of
        # innovation rows and one filter term (about 0.40 of the block with
        # Gaussian innovations and 0.52 with signs).
        block = spec.n * reps * spec.p * 8
        monkeypatch.setattr(processes, "_CHUNK_BYTES", block // 8)
        key = substream_keys(1, STREAM_PANEL, 0, range(1))[0]
        tracemalloc.start()
        try:
            out = np.empty(processes._chunk_shape(spec, None, reps))
            for _ in processes._chunks(spec, generator(key), reps, reps, out):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * block


def reference_panel(spec, rng):
    """One panel drawn straight from its replication's generator; signs are
    numpy's int8 integers on {0, 1}."""
    def mix(draws):
        return equicorrelated(draws, spec.cross_corr)

    def signs(*shape):
        return 2.0 * rng.integers(0, 2, size=shape, dtype=np.int8) - 1.0

    n, lags = spec.n, len(spec.coeffs) - 1
    if spec.kind == "iid_gaussian":
        return mix(rng.standard_normal((n, spec.p)))
    if spec.kind == "bounded_rademacher":
        return spec.scale * signs(n, spec.p)
    if spec.kind == "linear_process":
        if spec.innovation == "rademacher":
            e = signs(n + lags, spec.p)
        else:
            e = mix(rng.standard_normal((n + lags, spec.p)))
        return sum(a * e[lags - j : lags - j + n] for j, a in enumerate(spec.coeffs))
    prev = mix(rng.standard_normal(spec.p)) / math.sqrt(1.0 - spec.phi**2)
    e = mix(rng.standard_normal((n, spec.p)))
    x = np.empty_like(e)
    for t in range(n):
        prev = spec.phi * prev + e[t]
        x[t] = prev
    if spec.kind == "truncated_var1":
        np.clip(x, -spec.truncation, spec.truncation, out=x)
    return x


GAUSSIAN_SPECS = [
    DgpSpec(kind, n=8, p=3, phi=0.5, coeffs=(1.0, 0.5, -0.25), truncation=1.5,
            cross_corr=corr)
    for kind in ("iid_gaussian", "var1", "truncated_var1", "linear_process")
    for corr in (0.0, 0.3)
]


SIGN_SPECS = [
    DgpSpec("bounded_rademacher", n=8, p=3, scale=0.5),
    DgpSpec("linear_process", n=8, p=3, coeffs=(1.0, 0.5, -0.25), innovation="rademacher"),
]
BLOCK_SPECS = GAUSSIAN_SPECS + SIGN_SPECS


def spec_id(spec):
    return f"{spec.kind}-corr{spec.cross_corr}"


def block_id(spec):
    return f"{spec.kind}-rademacher" if spec.innovation == "rademacher" else spec_id(spec)


class TestReplicationBlocks:
    """A block of every kind is drawn whole from the substream of its first
    replication; the blocks of a pass give the same bits on any worker count
    and for any number of replications asked for."""

    START, STOP = 5, 25

    def draw(self, spec, stop=STOP):
        # With b = 1 the block sums are the panels, drawn block by block.
        return gather(spec, stop, 3, STREAM_PANEL, 2, 1)[2][self.START:]

    @pytest.mark.parametrize("spec", BLOCK_SPECS, ids=block_id)
    def test_one_replication_block_is_its_substream(self, spec, monkeypatch):
        monkeypatch.setattr(processes, "_BLOCK_BYTES", spec.n * spec.p * 8)
        reference = np.stack([
            reference_panel(spec, substream(3, STREAM_PANEL, 2, r))
            for r in range(self.START, self.STOP)
        ])
        assert np.array_equal(self.draw(spec), reference)

    @pytest.mark.parametrize("spec", BLOCK_SPECS, ids=block_id)
    @pytest.mark.parametrize("per_block", [None, 3], ids=["default", "three"])
    def test_blocks_match_block_reference(self, spec, per_block, monkeypatch):
        # The pass in one block, or three replications per block: nine
        # blocks, the last one short.
        if per_block is not None:
            monkeypatch.setattr(processes, "_BLOCK_BYTES",
                                per_block * spec.n * spec.p * 8 + 7)
        reference = draw_panels(spec, 3, STREAM_PANEL, 2, self.START, self.STOP)
        assert np.array_equal(self.draw(spec), reference)

    @pytest.mark.parametrize("spec", BLOCK_SPECS, ids=block_id)
    @pytest.mark.parametrize("per_block", [None, 3], ids=["default", "three"])
    def test_first_replications_do_not_depend_on_reps(self, spec, per_block, monkeypatch):
        # 11 replications end inside a block that 40 fill past its end; var1
        # kinds draw the initial states of the whole block either way.
        if per_block is not None:
            monkeypatch.setattr(processes, "_BLOCK_BYTES", per_block * spec.n * spec.p * 8)
        short = self.draw(spec, stop=11)
        assert np.array_equal(short, self.draw(spec, stop=40)[: len(short)])

    @pytest.mark.parametrize("spec", BLOCK_SPECS, ids=block_id)
    def test_worker_count_does_not_change_bytes(self, spec, monkeypatch):
        # Two replications per block: thirteen blocks in the pass, drawn on
        # the pool at every worker count. With b = 1 the multiplier
        # statistic and the quadratic term read every entry of the panels.
        monkeypatch.setattr(processes, "_BLOCK_BYTES", 2 * spec.n * spec.p * 8)
        threads = fill_threads(monkeypatch)
        sums, drawn = PowerSums(2.0), {}
        for cpus in ({0}, {0, 1}):
            patch_cpus(monkeypatch, cpus)
            threads.clear()
            stats = stream_statistics(spec, self.STOP, 3, 2, make_blocks(spec.n, 1), RADEMACHER,
                                      reductions=(sums,))
            drawn[len(cpus)] = [array.tobytes() for array in (
                stats.max_abs_mean, stats.mult_max, stats.quad, stats.read(sums))]
            assert_on_pool_threads(threads)
        assert drawn[1] == drawn[2]

    def test_rademacher_innovations_read_the_whole_block_time_major(self):
        # 140 of a block of 150 replications from an offset: the block's one
        # int8 call covers the innovations of all 150, time-major, so the
        # replications wanted read the bytes of the whole block's reference.
        spec = DgpSpec("linear_process", n=5, p=2, coeffs=(1.0, -0.5),
                       innovation="rademacher")
        key = substream_keys(8, STREAM_PANEL, 1, range(10, 11))[0]
        panels = fill_block(spec, generator(key), 140, 150)
        reference = block_panels(spec, substream(8, STREAM_PANEL, 1, 10), 150)
        assert np.array_equal(panels.transpose(1, 0, 2), reference[:140])

    def test_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert blocking.draw_workers() == 3


REDUCE_SPECS = [
    *[DgpSpec(kind, n=8, p=3, phi=0.5, coeffs=(1.0, 0.5, -0.25), truncation=1.5)
      for kind in KINDS],
    *[spec for spec in GAUSSIAN_SPECS if spec.cross_corr],
    DgpSpec("linear_process", n=8, p=3, coeffs=(1.0, -0.5), innovation="rademacher"),
    # One column of 8 or more points, which numpy sums pairwise.
    DgpSpec("var1", n=8, p=1, phi=0.5),
    DgpSpec("bounded_rademacher", n=8, p=1, scale=0.3),
]


def reduce_id(spec):
    name = f"{spec_id(spec)}-{spec.innovation}" if spec.kind == "linear_process" \
        else spec_id(spec)
    return f"{name}-p1" if spec.p == 1 else name


def patch_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)


def fill_threads(monkeypatch):
    """The names of the threads that call the chunk source ``_chunks`` from
    now on."""
    threads = set()
    chunks = processes._chunks

    def spy(*args):
        threads.add(threading.current_thread().name)
        return chunks(*args)

    monkeypatch.setattr(processes, "_chunks", spy)
    return threads


def assert_on_pool_threads(threads):
    """Every block was drawn on a draw-pool thread, none on the caller."""
    assert threads and threading.current_thread().name not in threads
    assert all(name.startswith("blocksym-draw") for name in threads)


class TestDrawBlock:
    """Blocks drawn and reduced by ``processes._draw_block`` equal the
    reductions of the reference panels."""

    REPS = MAX_BLOCK_REPS + 30

    def expected(self, spec, b, copies):
        """The blocks, means and block sums of ``gather``, from the reference."""
        x = draw_panels(spec, 4, STREAM_PANEL, 6, 0, self.REPS)
        if copies:
            x -= draw_panels(spec, 4, STREAM_COPY, 6, 0, self.REPS)
        blocks = [(first, min(end, self.REPS))
                  for first, end in block_bounds(spec, 0, self.REPS)]
        return blocks, x.mean(axis=-2), batch_block_sums(x, make_blocks(spec.n, b))

    @pytest.mark.parametrize("copies", [False, True], ids=["panels", "copies"])
    @pytest.mark.parametrize("spec", REDUCE_SPECS, ids=reduce_id)
    def test_matches_reduced_generate_panels(self, spec, copies, monkeypatch):
        # Five replications per block, the last block short.
        monkeypatch.setattr(processes, "_BLOCK_BYTES", 5 * spec.n * spec.p * 8)
        blocks, means, sums = self.expected(spec, 2, copies)
        got = gather(spec, self.REPS, 4, STREAM_PANEL, 6, 2, STREAM_COPY if copies else None)
        # Bounds are not realigned at replication 2048.
        assert got[0] == blocks and (2045, 2050) in blocks
        assert np.array_equal(got[1], means) and np.array_equal(got[2], sums)

    @pytest.mark.parametrize("b", [1, 8])
    def test_block_lengths_and_plain_means(self, b):
        spec = REDUCE_SPECS[2]
        _, want_means, want_sums = self.expected(spec, b, False)
        _, means, sums = gather(spec, self.REPS, 4, STREAM_PANEL, 6, b)
        _, plain_means, none = gather(spec, self.REPS, 4, STREAM_PANEL, 6)
        assert np.array_equal(sums, want_sums) and sums.shape[1] == spec.n // b
        assert np.array_equal(means, want_means) and np.array_equal(plain_means, means)
        assert none is None

    def test_block_length_must_divide_n(self):
        # A hand-built scheme is checked as make_blocks checks it, so no pass
        # sees a block length that does not divide n.
        with pytest.raises(BlockSchemeError, match=r"divide n \(n=8, b=3\)"):
            stream_statistics(REDUCE_SPECS[0], 10, 4, 6, BlockScheme(n=8, b=3), RADEMACHER)


CHUNK_SPECS = [
    DgpSpec(kind, n=16, p=p, phi=0.5, coeffs=(1.0, 0.5, -0.25), truncation=1.5,
            innovation=innovation, scale=0.5,
            cross_corr=0.3 if p > 1 and kind != "bounded_rademacher" and innovation == "gaussian"
            else 0.0)
    for kind, innovation in [*((kind, "gaussian") for kind in KINDS),
                             ("linear_process", "rademacher")]
    for p in (1, 3)
]
# Chunk budgets in time rows of a block: one run of b rows (none fits, and
# a run of one row is shorter than a linear process's two lags), six rows
# (chunks of 6, 6 and 4 unless b = n), the whole block.
CHUNK_BUDGETS = {"one-run": 0, "six-rows": 6, "whole-block": 10**6}
CHUNK_CASES = [
    pytest.param(spec, budget, id=f"{block_id(spec)}-p{spec.p}-{budget}")
    for spec in CHUNK_SPECS
    for budget in CHUNK_BUDGETS
]


class TestChunkedBlocks:
    """A block streamed through its reductions a chunk at a time gives the
    column means and block sums of the kernels on its whole panels, bit for
    bit, for any chunk size."""

    # 66 of a block of 70 replications: the last block of a run, drawn at
    # full length.
    WANTED, FULL = 66, 70

    @pytest.mark.parametrize("b", [None, 1, 2, 16], ids=["no-b", "b1", "b2", "bn"])
    @pytest.mark.parametrize("copies", [False, True], ids=["panels", "copies"])
    @pytest.mark.parametrize("spec, budget", CHUNK_CASES)
    def test_matches_the_kernels_on_whole_panels(self, spec, budget, copies, b, monkeypatch):
        row = self.FULL * spec.p * 8
        monkeypatch.setattr(processes, "_CHUNK_BYTES", CHUNK_BUDGETS[budget] * row + 7)
        shape = processes._chunk_shape(spec, b, self.FULL)
        assert shape == ({"one-run": b or 1, "six-rows": 6 if b != 16 else 16,
                          "whole-block": 16}[budget], self.FULL, spec.p)

        def block(stream):
            return generator(first_key(5, stream, 2, 0))

        # Whole panels from numpy's own calls, in the kernels' (k, n, p) layout.
        x = block_panels(spec, block(STREAM_PANEL), self.FULL)[: self.WANTED]
        copy_rng = None
        if copies:
            x = x - block_panels(spec, block(STREAM_COPY), self.FULL)[: self.WANTED]
            copy_rng = block(STREAM_COPY)
        x = np.ascontiguousarray(x)
        means, sums = processes._draw_block(spec, b, self.WANTED, self.FULL,
                                            block(STREAM_PANEL), copy_rng)
        assert np.array_equal(means, x.mean(axis=-2))
        if b is None:
            assert sums is None
        else:
            assert np.array_equal(sums, batch_block_sums(x, make_blocks(spec.n, b)))

    def test_full_suite_block_holds_no_panel(self):
        # One block of the full_suite mid pass (n = 128, p = 20, b = 8, 204
        # replications, a 4.0 MiB panel) streams 32-row chunks of 1.0 MiB:
        # with its block sums (0.5 MiB) it peaks at about 1.7 MiB, where
        # drawing the panel whole peaked at 4.5 MiB.
        spec = DgpSpec("truncated_var1", n=128, p=20, phi=0.5, truncation=3.0)
        full = processes._block_reps(spec)
        assert full == 204
        rng = generator(first_key(20260808, STREAM_PANEL, 1, 0))
        tracemalloc.start()
        try:
            drawn = processes._draw_block(spec, 8, full, full, rng, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drawn is not None and peak < 2 << 20, peak

    def test_linear_process_block_holds_no_panel(self):
        # One block of 16 replications at n = 32, p = 1000 (a 3.9 MiB
        # panel) with two lags streams 8-row chunks of 1.0 MiB: its window
        # of 10 innovation rows, one filter term and its block sums beside
        # the chunk peak at about 4 MiB, where drawing the block as one
        # slice of replications held its innovations, its filtered panel
        # and a filter term whole, 12.1 MiB.
        spec = DgpSpec("linear_process", n=32, p=1000, coeffs=(1.0, 0.5, 0.25))
        full = processes._block_reps(spec)
        assert full == 16
        rng = generator(first_key(20260808, STREAM_PANEL, 1, 0))
        tracemalloc.start()
        try:
            drawn = processes._draw_block(spec, 8, full, full, rng, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drawn is not None and peak < 6 << 20, peak


class FoldLog:
    """A reduction that logs each block it folds, as ("fold", start, rows),
    and checks that it folds on ``caller``; with ``fails`` it raises as
    it folds block 0."""

    def __init__(self, events, caller, fails=False):
        self.events, self.caller, self.fails = events, caller, fails

    def empty(self, reps, p):
        return np.zeros(1)

    def add(self, out, start, means):
        assert threading.current_thread() is self.caller
        self.events.append(("fold", start, len(means)))
        if self.fails and start == 0:
            raise RuntimeError("block 0 failed")


def logged_pool(monkeypatch, workers, events, on_submit=None):
    """Make ``stream_statistics`` submit to a pool of ``workers`` threads
    that logs each submission in ``events``, then calls ``on_submit`` with
    the number of blocks submitted so far."""
    pool = blocking._draw_pool(workers)

    class LoggedPool:
        def submit(self, fn, *args):
            events.append("submit")
            future = pool.submit(fn, *args)
            if on_submit is not None:
                on_submit(events.count("submit"))
            return future

    monkeypatch.setattr(blocking, "_draw_pool", lambda _: LoggedPool())


class TestPipeline:
    """``blocking.stream_statistics`` hands each block to the draw pool,
    keeps at most ``draw_workers() + 1`` blocks in flight and folds their
    means into the reductions on the calling thread, in block order."""

    SPEC = DgpSpec("var1", n=8, p=3, phi=0.5)
    SCHEME = make_blocks(8, 2)
    REPS = 1010  # eleven blocks of 100, the last one short

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_blocks_in_flight_and_folded_in_order_on_the_caller(self, cpus, monkeypatch):
        # Block j is submitted once block j - cpus - 1 is folded, so never
        # are more than cpus + 1 blocks in flight, and the rest are folded
        # in order once the last one is submitted.
        monkeypatch.setattr(processes, "_BLOCK_BYTES", 100 * self.SPEC.n * self.SPEC.p * 8)
        patch_cpus(monkeypatch, set(range(cpus)))
        threads = fill_threads(monkeypatch)
        events = []
        logged_pool(monkeypatch, cpus, events)
        log = FoldLog(events, threading.current_thread())
        stats = stream_statistics(self.SPEC, self.REPS, 4, 6, self.SCHEME, RADEMACHER,
                                  reductions=(log,))
        starts = list(range(0, self.REPS, 100))
        folds = [("fold", start, min(100, self.REPS - start)) for start in starts]
        want = []
        for j in range(len(starts)):
            want.append("submit")
            if j >= cpus:
                want.append(folds[j - cpus])
        want += folds[len(starts) - cpus:]
        assert events == want and stats.reps == self.REPS
        assert_on_pool_threads(threads)

    def test_generators_are_built_on_the_calling_thread(self, monkeypatch):
        # Pool threads call no public function, so the caller builds each
        # block's panel, copy and multiplier generators and hands them over.
        monkeypatch.setattr(processes, "_BLOCK_BYTES", 100 * self.SPEC.n * self.SPEC.p * 8)
        patch_cpus(monkeypatch, {0, 1})
        threads, build = [], blocking.generator

        def spy(key):
            threads.append(threading.current_thread().name)
            return build(key)

        monkeypatch.setattr(blocking, "generator", spy)
        stream_statistics(self.SPEC, self.REPS, 4, 6, self.SCHEME, RADEMACHER, copies=True)
        assert threads == [threading.current_thread().name] * 33

    def test_more_workers_than_cores_write_disjoint_spans(self, monkeypatch):
        # One replication per block on eight workers, switching threads as
        # often as the interpreter allows: a lost or misplaced write shows.
        spec, reps = REDUCE_SPECS[1], 300
        monkeypatch.setattr(processes, "_BLOCK_BYTES", spec.n * spec.p * 8)
        x = (draw_panels(spec, 4, STREAM_PANEL, 6, 0, reps)
             - draw_panels(spec, 4, STREAM_COPY, 6, 0, reps))
        eps = pass_multipliers(spec, RADEMACHER, self.SCHEME.count, 4, 6, 0, reps)
        patch_cpus(monkeypatch, set(range(8)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stats = stream_statistics(spec, reps, 4, 6, self.SCHEME, RADEMACHER, copies=True)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(stats.max_abs_mean, batch_max_abs_mean(x))
        assert np.array_equal(stats.mult_max,
                              batch_multiplier_max(batch_block_sums(x, self.SCHEME), eps, 8))

    @pytest.mark.parametrize("where", ["block", "add", "multipliers"])
    def test_a_failure_reaches_the_caller_and_stops_the_blocks(self, where, monkeypatch):
        # One replication per block on two workers, so three blocks may be
        # in flight. Block 0's fill or its multipliers, both drawn on a pool
        # thread, raising once block 2 is submitted and block 1 runs, or the
        # reduction raising as it folds block 0: the error reaches the
        # caller, no block runs once stream_statistics has returned, and no
        # block past the window is ever submitted.
        monkeypatch.setattr(processes, "_BLOCK_BYTES", self.SPEC.n * self.SPEC.p * 8)
        patch_cpus(monkeypatch, {0, 1})
        lock = threading.Lock()
        armed, running, returned = threading.Event(), threading.Event(), threading.Event()
        state = {"active": 0, "late": 0, "fills": 0}
        block0 = first_state(4, STREAM_PANEL, 6, 0)
        eps0 = first_state(4, STREAM_MULTIPLIER, 6, 0)
        chunks, multipliers = processes._chunks, blocking._multipliers

        def tracked(spec, rng, *args):
            # A chunk source: its body runs as the block asks for the
            # first chunk, before any draw.
            with lock:
                state["active"] += 1
                state["late"] += returned.is_set()
                state["fills"] += 1
            try:
                if fresh_state(rng) == block0:
                    if where == "block":
                        assert armed.wait(timeout=30)
                        raise RuntimeError("block 0 failed")
                else:
                    # Still running when the error reaches the caller.
                    running.set()
                    time.sleep(0.02)
                yield from chunks(spec, rng, *args)
            finally:
                with lock:
                    state["active"] -= 1

        def failing(mult, rng, rows, count):
            assert threading.current_thread().name.startswith("blocksym-draw")
            if fresh_state(rng) == eps0:
                assert armed.wait(timeout=30) and running.wait(timeout=30)
                raise RuntimeError("block 0's multipliers failed")
            return multipliers(mult, rng, rows, count)

        monkeypatch.setattr(processes, "_chunks", tracked)
        if where == "multipliers":
            monkeypatch.setattr(blocking, "_multipliers", failing)
        # Armed once the caller has submitted every block it will submit.
        events = []
        logged_pool(monkeypatch, 2, events, lambda count: armed.set() if count == 3 else None)
        log = FoldLog(events, threading.current_thread(), fails=where == "add")
        with pytest.raises(RuntimeError, match="failed"):
            stream_statistics(self.SPEC, 64, 4, 6, self.SCHEME, RADEMACHER, reductions=(log,))
        returned.set()
        with lock:
            assert state["active"] == 0
            fills = state["fills"]
        time.sleep(0.05)
        assert state["late"] == 0 and state["fills"] == fills
        assert events.count("submit") == 3

    def test_a_failure_cancels_the_queued_block(self, monkeypatch):
        # One worker, so two blocks are in flight and block 1 waits in the
        # pool's queue behind block 0, whose fill raises. A gate queued
        # between them holds the worker until block 1 is cancelled (or for
        # 10 s), so block 1 runs only if the failure does not cancel it.
        monkeypatch.setattr(processes, "_BLOCK_BYTES", self.SPEC.n * self.SPEC.p * 8)
        patch_cpus(monkeypatch, {0})
        pool = blocking._draw_pool(1)
        queued, later = threading.Event(), []
        filled = []

        def gate():
            assert queued.wait(timeout=10)
            deadline = time.monotonic() + 10
            while not later[0].cancelled() and time.monotonic() < deadline:
                time.sleep(0.001)

        class GatedPool:
            """The draw pool, with the gate queued before the second block."""

            submitted = 0

            def submit(self, fn, *args):
                self.submitted += 1
                if self.submitted != 2:
                    return pool.submit(fn, *args)
                pool.submit(gate)
                later.append(pool.submit(fn, *args))
                queued.set()
                return later[0]

        monkeypatch.setattr(blocking, "_draw_pool", lambda workers: GatedPool())

        def failing(spec, rng, *args):
            filled.append(fresh_state(rng))
            assert queued.wait(timeout=10)
            raise RuntimeError("block 0 failed")

        monkeypatch.setattr(processes, "_chunks", failing)
        with pytest.raises(RuntimeError, match="block 0 failed"):
            stream_statistics(self.SPEC, 64, 4, 6, self.SCHEME, RADEMACHER)
        assert later[0].cancelled()
        assert filled == [first_state(4, STREAM_PANEL, 6, 0)]


class TestSupport:
    def test_rademacher_support(self):
        spec = DgpSpec("bounded_rademacher", n=4, p=1)
        assert set(np.unique(stack_panels(spec, 3, 5))) <= {-1.0, 1.0}

    @pytest.mark.parametrize("seed", range(5))
    def test_truncated_support_exhaustive(self, seed):
        spec = DgpSpec("truncated_var1", n=64, p=4, phi=0.5, truncation=2.0)
        assert np.abs(stack_panels(spec, 3, seed)).max() <= 2.0

    def test_scaled_rademacher(self):
        spec = DgpSpec("bounded_rademacher", n=16, p=2, scale=0.5)
        assert set(np.unique(np.abs(stack_panels(spec, 3, 0)))) == {0.5}

    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 0.5), (0.7, -0.2, 0.1)])
    def test_rademacher_linear_process_support(self, coeffs):
        spec = DgpSpec("linear_process", n=16, p=8, coeffs=coeffs, innovation="rademacher")
        bound = spec.support_bound
        assert bound == sum(abs(a) for a in coeffs)
        # Aligned innovation signs reach the bound exactly.
        assert np.abs(stack_panels(spec, 200, 2)).max() == bound

    def test_gaussian_linear_process_is_unbounded(self):
        assert DgpSpec("linear_process", n=4, p=2, coeffs=(1.0, 0.5)).support_bound is None


MEAN_ZERO_SPECS = [
    DgpSpec("iid_gaussian", n=4, p=2),
    DgpSpec("var1", n=4, p=2, phi=0.5),
    DgpSpec("truncated_var1", n=4, p=2, phi=0.5, truncation=3.0),
]


def centered(spec, reps=10_000):
    """Whether every entry's mean over replications is within 4 se of zero."""
    panels = stack_panels(spec, reps, 9)
    sd = panels.std(axis=0)
    return bool(np.all(np.abs(panels.mean(axis=0)) < 4.0 / math.sqrt(reps) * sd))


class TestMoments:
    def test_mean_zero_over_replications(self):
        assert all(centered(spec) for spec in MEAN_ZERO_SPECS)

    def test_shifted_panels_are_caught(self, monkeypatch):
        # Negative control: panels 0.1 off mean zero, as uncentered
        # innovations would leave them, fail the mean-zero gate above. The
        # chain gates barely see such a shift, because E psi(max |mean|)
        # moves by second order in it: 3.5 se on the exact MA(1) lhs at 20k
        # replications, under the 4 se that flags.
        chunks = processes._chunks

        def shifted(*args):
            for t, x in chunks(*args):
                x += 0.1
                yield t, x

        monkeypatch.setattr(processes, "_chunks", shifted)
        assert not any(centered(spec) for spec in MEAN_ZERO_SPECS)

    def test_var1_phi_zero_matches_iid_lag1(self):
        # phi = 0 degenerates to iid; lag-1 autocovariance must sit at zero.
        spec = DgpSpec("var1", n=64, p=1, phi=0.0)
        panels = stack_panels(spec, 4000, 13)[:, :, 0]
        lag1 = (panels[:, 1:] * panels[:, :-1]).mean(axis=1)
        se = lag1.std(ddof=1) / math.sqrt(len(lag1))
        assert abs(lag1.mean()) < 3 * se

    def test_independent_copy_uncorrelated(self):
        # Products of aligned standard normal entries have unit variance,
        # so the empirical correlation sits within 4 SE of zero.
        reps = 4000
        spec = DgpSpec("iid_gaussian", n=2, p=2)
        orig = stack_panels(spec, reps, 21).reshape(reps, -1)
        copies = stack_panels(spec, reps, 21, stream=2).reshape(reps, -1)
        corr = (orig * copies).mean(axis=0)
        assert np.abs(corr).max() < 4.0 / math.sqrt(reps)

    def test_copy_matches_original_law_lag1(self):
        # Lag-1 autocovariance of the copy agrees with the original within
        # Monte Carlo error at phi = 0.5.
        spec = DgpSpec("var1", n=32, p=1, phi=0.5)
        reps = 10_000
        orig = stack_panels(spec, reps, 4)[:, :, 0]
        cop = stack_panels(spec, reps, 4, stream=2)[:, :, 0]

        def lag1(mat):
            vals = (mat[:, 1:] * mat[:, :-1]).mean(axis=1)
            return vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))

        m1, s1 = lag1(orig)
        m2, s2 = lag1(cop)
        assert abs(m1 - m2) < 3 * math.hypot(s1, s2)


class TestLongRunCov:
    def test_iid_identity(self):
        spec = DgpSpec("iid_gaussian", n=16, p=3)
        assert longrun_covariance(spec)[0] == 1.0

    def test_iid_equicorrelated(self):
        # cross_corr sets the correlation, not the variance.
        spec = DgpSpec("iid_gaussian", n=16, p=3, cross_corr=0.4)
        assert longrun_covariance(spec)[0] == 1.0

    def test_rademacher_scale_squared(self):
        spec = DgpSpec("bounded_rademacher", n=16, p=3, scale=1.5)
        assert longrun_covariance(spec)[0] == 2.25

    def test_var1_against_double_sum(self):
        # Brute-force O(n^2) double summation of autocovariances.
        spec = DgpSpec("var1", n=64, p=1, phi=0.5)
        gamma0 = 1.0 / (1.0 - 0.25)
        brute = sum(
            0.5 ** abs(s - t) * gamma0 for s in range(64) for t in range(64)
        ) / 64.0
        assert longrun_covariance(spec)[0] == pytest.approx(brute, rel=1e-12)

    def test_linear_trivial_filter_reduces_to_iid(self):
        spec = DgpSpec("linear_process", n=16, p=2, coeffs=(1.0,))
        assert longrun_covariance(spec)[0] == 1.0

    def test_linear_against_double_sum(self):
        coeffs = (1.0, 0.7, -0.3)
        n = 32
        spec = DgpSpec("linear_process", n=n, p=1, coeffs=coeffs)
        a = np.array(coeffs)

        def gamma(h):
            h = abs(h)
            return float(np.dot(a[: len(a) - h], a[h:])) if h < len(a) else 0.0

        brute = sum(gamma(s - t) for s in range(n) for t in range(n)) / n
        assert longrun_covariance(spec)[0] == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("kind", ["iid_gaussian", "var1", "linear_process",
                                      "bounded_rademacher"])
    def test_linear_kinds_cross_covariance_is_c_v(self, kind):
        extra = {"var1": {"phi": 0.5}, "linear_process": {"coeffs": (1.0, 0.5)}}.get(kind, {})
        c = 0.0 if kind == "bounded_rademacher" else 0.3
        spec = DgpSpec(kind, n=16, p=3, cross_corr=c, **extra)
        v, cross = longrun_covariance(spec)
        assert cross == pytest.approx(c * v, rel=1e-14)

    def test_matches_mc_covariance(self):
        # Covariance of sqrt(n) * column means over replications against
        # v ((1 - c) I + c 11^T); for the near-Gaussian statistic
        # Var(s_i s_j) = c_ii c_jj + c_ij^2.
        spec = DgpSpec("var1", n=64, p=4, phi=0.5, cross_corr=0.3)
        reps = 10_000
        panels = stack_panels(spec, reps, 17)
        stats = panels.mean(axis=1) * math.sqrt(spec.n)
        mc = stats.T @ stats / reps
        v, c = longrun_covariance(spec)[0], spec.cross_corr
        cov = v * ((1.0 - c) * np.eye(spec.p) + c * np.ones((spec.p, spec.p)))
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / reps)
        assert np.all(np.abs(mc - cov) < 4 * se)




def clipped_product_moment(rho, tau):
    """E[f(Z) f(Z')] for f = clip(., -tau, tau) and standard normals of
    correlation rho, by ``scipy.integrate.dblquad``: Z = x and Z' = rho x +
    sqrt(1 - rho^2) y for independent x and y on [-12, 12]^2, split where
    f(x) and f(Z') bend, so each piece is smooth (signed pieces, whose
    y-limits may cross, still add up to the whole square)."""
    s, edge = math.sqrt(1.0 - rho * rho), 12.0

    def integrand(y, x):
        z = rho * x + s * y
        return (min(tau, max(-tau, x)) * min(tau, max(-tau, z))
                * math.exp(-0.5 * (x * x + y * y)) / (2.0 * math.pi))

    low, high = (lambda x: (-tau - rho * x) / s), (lambda x: (tau - rho * x) / s)
    return sum(integrate.dblquad(integrand, xa, xb, ya, yb, epsabs=1e-12, epsrel=1e-12)[0]
               for xa, xb in ((-edge, -tau), (-tau, tau), (tau, edge))
               for ya, yb in ((lambda x: -edge, low), (low, high), (high, lambda x: edge)))


def mean_gram_eigenvalues(spec, reps, seed):
    """The Monte Carlo covariance model, kept here as a reference: per
    replication, sqrt(n) times the column means S of ``processes._draw_block``
    (drawn as a tail pass draws them) gives (1^T S)^2 / p and (p |S|^2 -
    (1^T S)^2) / (p (p - 1)), unbiased for the eigenvalues along the
    all-ones vector and across it. Returns the two arrays of terms."""
    block, p = processes._block_reps(spec), spec.p
    along, across = [], []
    for first in range(0, reps, block):
        rng = generator(first_key(seed, STREAM_PANEL, PURPOSE_TAIL, first))
        means, _ = processes._draw_block(spec, None, min(block, reps - first), block, rng, None)
        scaled = math.sqrt(spec.n) * means
        total = scaled.sum(axis=1)
        along.append(total**2 / p)
        across.append((p * (scaled**2).sum(axis=1) - total**2) / (p * (p - 1)))
    return np.concatenate(along), np.concatenate(across)


class TestClippedLongRunCov:
    """The closed form of the clipped autoregression against three references."""

    @pytest.mark.parametrize("tau", [0.5, 1.3, 3.0])
    @pytest.mark.parametrize("rho", [-0.5, 0.3, 0.9])
    def test_series_matches_dblquad(self, rho, tau):
        _, gamma = processes._clipped_correlations(tau, np.array([rho]))
        assert abs(gamma[0] - clipped_product_moment(rho, tau)) < 1e-8

    @pytest.mark.parametrize("tau", [0.5, 1.3, 3.0])
    def test_second_moment_matches_dblquad(self, tau):
        # gamma(1) = E[f(Z)^2], the one-dimensional integral.
        at_one, _ = processes._clipped_correlations(tau, np.array([0.5]))
        want = integrate.quad(lambda z: min(tau, abs(z)) ** 2 * math.exp(-0.5 * z * z)
                              / math.sqrt(2.0 * math.pi), -12.0, 12.0, points=[-tau, tau],
                              epsabs=1e-13)[0]
        assert abs(at_one - want) < 1e-10

    @pytest.mark.parametrize("tau", [1e-200, 1e-10, 1e-3, 0.5, 1.39, 1.41, 2.6, 6.0])
    def test_second_moment_matches_mpmath(self, tau):
        # gamma(1) = P(chi^2_3 <= tau^2) + tau^2 P(|Z| > tau) to 40 digits,
        # on both sides of tau = 1.4, where the closed form stops taking
        # erf(tau / sqrt 2) - 2 tau phi(tau): at 1e-10 that difference
        # cancelled 11 of 16 digits, and at 1e-200 it went negative.
        mp.mp.dps = 40
        t = mp.mpf(tau)
        want = float(mp.gammainc(1.5, 0, t * t / 2, regularized=True)
                     + t * t * mp.erfc(t / mp.sqrt(2)))  # 0 at 1e-200
        at_one, _ = processes._clipped_correlations(tau, np.array([0.5]))
        assert abs(at_one - want) <= 1e-15 * want

    @pytest.mark.parametrize("phi", [0.5, -0.7, 0.0])
    @pytest.mark.parametrize("cross_corr", [0.0, 0.3])
    def test_no_clipping_is_var1(self, phi, cross_corr):
        # At 40 sigma the clip never bites, so the clipped autoregression's
        # covariance is var1's: v and c v.
        sigma = 1.0 / math.sqrt(1.0 - phi * phi)
        clipped = DgpSpec("truncated_var1", n=64, p=3, phi=phi, truncation=40.0 * sigma,
                          cross_corr=cross_corr)
        v = longrun_covariance(DgpSpec("var1", n=64, p=3, phi=phi, cross_corr=cross_corr))[0]
        got_v, got_cross = longrun_covariance(clipped)
        assert got_v == pytest.approx(v, rel=1e-12)
        assert got_cross == pytest.approx(cross_corr * v, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("truncation", [1e200, sys.float_info.max])
    def test_a_clip_past_the_float_range_is_var1(self, truncation):
        # tau * tau overflows and the tail underflows, so tau's terms would
        # be inf * 0; the clip never binds, and the covariance is var1's.
        spec = DgpSpec("truncated_var1", n=16, p=3, phi=0.5, truncation=truncation,
                       cross_corr=0.3)
        assert longrun_covariance(spec) == longrun_covariance(replace(spec, kind="var1"))

    @pytest.mark.parametrize("spec", [
        DgpSpec("truncated_var1", n=128, p=4, phi=0.5, truncation=3.0),
        DgpSpec("truncated_var1", n=32, p=5, phi=0.8, truncation=1.0, cross_corr=0.3),
    ], ids=["c0", "c0.3"])
    def test_matches_the_monte_carlo_gram(self, spec):
        # 100k replications; each eigenvalue's mean of iid per-replication
        # terms is gated at 5 of its standard errors (two-sided normal
        # tail 5.7e-7), so the test fails by chance about once in a
        # million runs and no seed is chosen to pass it.
        v, cross = longrun_covariance(spec)
        for terms, want in zip(mean_gram_eigenvalues(spec, 100_000, 30),
                               (v + (spec.p - 1) * cross, v - cross)):
            se = terms.std(ddof=1) / math.sqrt(len(terms))
            assert abs(terms.mean() - want) < 5.0 * se, (terms.mean(), want, se)

    def test_clipping_shrinks_the_variance(self):
        # |clip(x)| <= |x| pathwise, and the clip loses correlation.
        spec = DgpSpec("truncated_var1", n=32, p=3, phi=0.8, truncation=1.0, cross_corr=0.3)
        v, cross = longrun_covariance(spec)
        var1 = longrun_covariance(DgpSpec("var1", n=32, p=3, phi=0.8))[0]
        assert 0 < v < var1 and 0 < cross < 0.3 * v

    def test_series_length_is_bounded_at_the_largest_correlation(self):
        # At |phi| = |cross_corr| = 0.999 the series runs about 20,000
        # terms and finishes; beyond it the spec is rejected.
        spec = DgpSpec("truncated_var1", n=16, p=3, phi=0.999, truncation=1.0,
                       cross_corr=0.999)
        v, cross = longrun_covariance(spec)
        assert 0 < cross < v
        for field in ("phi", "cross_corr"):
            with pytest.raises(DgpValidationError, match=f"^{field}: .*0.999"):
                DgpSpec("truncated_var1", n=16, p=3, **{field: 0.9995})
@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    p=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
def test_generate_is_pure(n, p, seed):
    spec = DgpSpec("var1", n=n, p=p, phi=0.25)
    assert np.array_equal(stack_panels(spec, 2, seed), stack_panels(spec, 2, seed))
