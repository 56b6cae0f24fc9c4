import json
import math
import os
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocksym.blocking import (
    BlockSchemeError,
    Exceedances,
    MaxBelow,
    MeanGram,
    MultiplierSpec,
    PowerSums,
    batch_block_sums,
    batch_max_abs_mean,
    batch_multiplier_max,
    batch_multipliers,
    make_blocks,
    shared_passes,
    stream_statistics,
)
from blocksym.cli import load_config, run_experiment
from blocksym.gaussian import RhoEstimate, simulate_max_statistics
from blocksym.processes import DEFAULT_CHUNK, DgpSpec, reduce_panels
from blocksym.seeding import (
    PURPOSE_DEFAULT,
    PURPOSE_LHS,
    PURPOSE_MID,
    PURPOSE_MODEL,
    PURPOSE_TAIL,
    STREAM_COPY,
    STREAM_PANEL,
)
from blocksym.verify import verify_prop2
from conftest import draw_panels

RADEMACHER = MultiplierSpec("rademacher")


def mult_stat(data, scheme, eps):
    """The block-multiplier statistic of one panel through the kernels."""
    return batch_multiplier_max(batch_block_sums(data, scheme), eps, scheme.n)


def multipliers(mult, count, seed):
    """The multipliers of replication 0 of the default purpose."""
    return batch_multipliers(mult, count, seed, 0, 0, 1)[0]


finite_panels = arrays(
    dtype=float,
    shape=st.tuples(st.sampled_from([2, 4, 6, 12]), st.integers(1, 4)),
    elements=st.floats(min_value=-100, max_value=100),
)


class TestMakeBlocks:
    def test_basic_partition(self):
        # Equal blocks of 0..11 with these sums are only the contiguous ones.
        scheme = make_blocks(12, 3)
        assert scheme.count == 4
        sums = batch_block_sums(np.arange(12.0)[:, None], scheme)
        assert sums[:, 0].tolist() == [0 + 1 + 2, 3 + 4 + 5, 6 + 7 + 8, 9 + 10 + 11]

    def test_singleton_blocks(self):
        scheme = make_blocks(5, 1)
        assert scheme.count == 5
        sums = batch_block_sums(np.arange(5.0)[:, None], scheme)
        assert sums[:, 0].tolist() == [0, 1, 2, 3, 4]

    def test_non_divisible_rejected(self):
        with pytest.raises(BlockSchemeError, match="divide"):
            make_blocks(10, 3)

    def test_bounds(self):
        with pytest.raises(BlockSchemeError):
            make_blocks(4, 0)
        with pytest.raises(BlockSchemeError):
            make_blocks(4, 5)


class TestBlockSums:
    def test_constant_panel(self):
        sums = batch_block_sums(np.ones((6, 2)), make_blocks(6, 2))
        assert np.all(sums == 2.0)

    def test_single_block_is_total(self):
        data = np.arange(8.0).reshape(4, 2)
        sums = batch_block_sums(data, make_blocks(4, 4))
        assert np.allclose(sums[0], data.sum(axis=0))

    def test_dimension_mismatch(self):
        with pytest.raises(BlockSchemeError):
            batch_block_sums(np.ones((4, 1)), make_blocks(8, 2))

    @settings(max_examples=50, deadline=None)
    @given(data=finite_panels)
    def test_telescoping(self, data):
        n = data.shape[0]
        for b in [x for x in range(1, n + 1) if n % x == 0]:
            sums = batch_block_sums(data, make_blocks(n, b))
            assert np.allclose(sums.sum(axis=0), data.sum(axis=0), atol=1e-9)


class TestMultipliers:
    def test_rademacher_support(self):
        eps = multipliers(RADEMACHER, 200, seed=1)
        assert set(np.unique(eps)) <= {-1.0, 1.0}

    def test_uniform_sym_support_and_variance(self):
        eps = multipliers(MultiplierSpec("uniform_sym"), 100_000, seed=2)
        half = np.sqrt(3.0)
        assert np.all(np.abs(eps) <= half)
        # Uniform on [-sqrt(3), sqrt(3)] has unit variance; the variance of
        # eps^2 is 4/5, giving the MC standard error below.
        se = np.sqrt(0.8 / len(eps))
        assert abs((eps**2).mean() - 1.0) < 4 * se

    def test_single_draw(self):
        assert batch_multipliers(RADEMACHER, 1, 3, 0, 0, 1).shape == (1, 1)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            batch_multipliers(RADEMACHER, 0, 0, 0, 0, 1)

    def test_replication_independent_of_batch(self):
        whole = batch_multipliers(RADEMACHER, 5, 7, 2, 0, 10)
        assert np.array_equal(batch_multipliers(RADEMACHER, 5, 7, 2, 3, 7), whole[3:7])
        assert not np.array_equal(batch_multipliers(RADEMACHER, 5, 7, 3, 0, 10), whole)

    def test_bounds(self):
        assert MultiplierSpec("rademacher").bound == 1.0
        assert MultiplierSpec("uniform_sym").bound == pytest.approx(np.sqrt(3.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MultiplierSpec("gaussian")


class TestExpand:
    """Each time point carries the multiplier of its block."""

    def test_pairs(self):
        scheme = make_blocks(4, 2)
        eps = np.array([2.0, -3.0])
        # A panel with one nonzero row reads the weight of that time point.
        weights = [4 * mult_stat(np.eye(4)[:, [t]], scheme, eps) for t in range(4)]
        assert weights == [2.0, 2.0, 3.0, 3.0]
        data = np.array([[1.0, 2.0], [3.0, -1.0], [-2.0, 5.0], [4.0, 1.0]])
        weighted = data * np.array([2.0, 2.0, -3.0, -3.0])[:, None]
        assert mult_stat(data, scheme, eps) == batch_max_abs_mean(weighted)

    def test_singleton_identity(self):
        eps = np.array([1.0, -1.0, 1.0])
        data = np.array([[1.0, -2.0], [4.0, 3.0], [2.0, 1.0]])
        assert mult_stat(data, make_blocks(3, 1), eps) == batch_max_abs_mean(data * eps[:, None])

    def test_all_ones(self):
        data = np.array([[1.0, -2.0], [4.0, 3.0], [2.0, 1.0], [0.0, 5.0], [-3.0, 2.0], [1.0, 1.0]])
        assert mult_stat(data, make_blocks(6, 2), np.ones(3)) == batch_max_abs_mean(data)

    def test_length_mismatch(self):
        with pytest.raises(BlockSchemeError):
            mult_stat(np.ones((4, 1)), make_blocks(4, 2), np.ones(3))


class TestMaxStatistics:
    def test_zero_panel(self):
        assert batch_max_abs_mean(np.zeros((3, 2))) == 0.0

    def test_hand_value(self):
        assert batch_max_abs_mean(np.array([[1.0, -3.0], [1.0, 3.0]])) == 1.0

    def test_scalar_column(self):
        assert batch_max_abs_mean(np.array([[1.0], [2.0], [6.0]])) == pytest.approx(3.0)

    def test_unit_multipliers_reduce_to_plain(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((12, 3))
        scheme = make_blocks(12, 3)
        stat = mult_stat(data, scheme, np.ones(scheme.count))
        assert stat == pytest.approx(batch_max_abs_mean(data))

    def test_sign_flip_invariant(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((12, 3))
        scheme = make_blocks(12, 3)
        stat = mult_stat(data, scheme, -np.ones(scheme.count))
        assert stat == pytest.approx(batch_max_abs_mean(data))

    def test_cancellation(self):
        assert mult_stat(np.ones((2, 1)), make_blocks(2, 1), np.array([1.0, -1.0])) == 0.0

    def test_matches_row_weighted_panel(self):
        # The block statistic equals the plain statistic of the panel whose
        # rows are scaled by the multipliers, each repeated over its block.
        rng = np.random.default_rng(2)
        data = rng.standard_normal((12, 3))
        scheme = make_blocks(12, 4)
        eps = multipliers(MultiplierSpec("uniform_sym"), scheme.count, seed=9)
        weighted = data * np.repeat(eps, scheme.b)[:, None]
        assert mult_stat(data, scheme, eps) == pytest.approx(batch_max_abs_mean(weighted))


@settings(max_examples=40, deadline=None)
@given(data=finite_panels, lam=st.floats(min_value=0.01, max_value=50.0),
       seed=st.integers(0, 1000))
def test_scale_equivariance(data, lam, seed):
    n = data.shape[0]
    scheme = make_blocks(n, n // 2 if n % 2 == 0 else 1)
    eps = multipliers(RADEMACHER, scheme.count, seed)
    assert batch_max_abs_mean(lam * data) == pytest.approx(
        lam * batch_max_abs_mean(data), rel=1e-9)
    assert mult_stat(lam * data, scheme, eps) == pytest.approx(
        lam * mult_stat(data, scheme, eps), rel=1e-9, abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(data=finite_panels, seed=st.integers(0, 1000))
def test_coordinate_permutation_invariance(data, seed):
    n, p = data.shape
    rng = np.random.default_rng(seed)
    permuted = data[:, rng.permutation(p)]
    scheme = make_blocks(n, 2 if n % 2 == 0 else 1)
    eps = multipliers(RADEMACHER, scheme.count, seed)
    assert batch_max_abs_mean(permuted) == pytest.approx(batch_max_abs_mean(data))
    assert mult_stat(permuted, scheme, eps) == pytest.approx(mult_stat(data, scheme, eps))


@st.composite
def panel_stacks(draw):
    """(k, n, p) panels, a block length that is 1, n or any divisor, and (k, count) eps."""
    k = draw(st.integers(1, 5))
    n = draw(st.sampled_from([1, 2, 4, 6, 12]))
    p = draw(st.integers(1, 4))
    divisors = [x for x in range(1, n + 1) if n % x == 0]
    b = draw(st.one_of(st.just(1), st.just(n), st.sampled_from(divisors)))
    panels = draw(arrays(float, (k, n, p), elements=st.floats(-100, 100)))
    eps = draw(arrays(float, (k, n // b), elements=st.floats(-2, 2)))
    return panels, make_blocks(n, b), eps


class TestKernels:
    @settings(max_examples=60, deadline=None)
    @given(stack=panel_stacks())
    def test_per_panel_calls_are_batch_rows(self, stack):
        panels, scheme, eps = stack
        sums = batch_block_sums(panels, scheme)
        plain = batch_max_abs_mean(panels)
        starred = batch_multiplier_max(sums, eps, scheme.n)
        # Every multiplier vector on every panel, the exact oracle's layout.
        grid = batch_multiplier_max(sums, eps[:, None, :], scheme.n)
        for j, data in enumerate(panels):
            assert np.array_equal(batch_block_sums(data, scheme), sums[j])
            assert batch_max_abs_mean(data) == plain[j]
            assert mult_stat(data, scheme, eps[j]) == starred[j]
            for i in range(len(eps)):
                assert mult_stat(data, scheme, eps[i]) == grid[i, j]

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["iid_gaussian", "bounded_rademacher"]),
           mult=st.sampled_from(["rademacher", "uniform_sym"]),
           n=st.sampled_from([1, 4, 6]), p=st.integers(1, 3), full_block=st.booleans(),
           reps=st.integers(1, 40), seed=st.integers(0, 2**32), purpose=st.integers(0, 10))
    def test_simulated_statistics_are_the_kernels(self, kind, mult, n, p, full_block,
                                                  reps, seed, purpose):
        spec = DgpSpec(kind, n=n, p=p)
        scheme = make_blocks(n, n if full_block else 1)
        mult = MultiplierSpec(mult)
        stats = stream_statistics(spec, reps, seed, purpose, scheme, mult)
        panels = draw_panels(spec, seed, STREAM_PANEL, purpose, 0, reps)
        eps = batch_multipliers(mult, scheme.count, seed, purpose, 0, reps)
        assert np.array_equal(stats.max_abs_mean, batch_max_abs_mean(panels))
        assert np.array_equal(
            stats.mult_max, batch_multiplier_max(batch_block_sums(panels, scheme), eps, n)
        )
        # The rho samples are the default purpose's statistics on the sqrt(n) scale.
        plain, starred = simulate_max_statistics(spec, scheme, mult, reps, seed)
        stats = stream_statistics(spec, reps, seed, PURPOSE_DEFAULT, scheme, mult)
        root_n = math.sqrt(n)
        assert np.array_equal(plain, root_n * stats.max_abs_mean)
        assert np.array_equal(starred, root_n * stats.mult_max)


@pytest.fixture
def panel_calls(monkeypatch):
    """Counts reduce_panels calls by (spec, seed, stream, purpose, reps)."""
    from blocksym import blocking

    calls = Counter()

    def counting(spec, reps, seed, stream, purpose, *args, **kw):
        calls[(spec, seed, stream, purpose, reps)] += 1
        return reduce_panels(spec, reps, seed, stream, purpose, *args, **kw)

    monkeypatch.setattr(blocking, "reduce_panels", counting)
    return calls


class TestStreamLedger:
    SPEC = DgpSpec("var1", n=8, p=3, phi=0.4)
    SCHEME = make_blocks(8, 2)
    MULT = MultiplierSpec("rademacher")

    def test_repeated_request_is_served_once_per_block(self, panel_calls):
        args = (self.SPEC, 50, 3, 2, self.SCHEME, self.MULT)
        with shared_passes() as ledger:
            first = stream_statistics(*args)
            again = stream_statistics(*args)
            assert sum(panel_calls.values()) == 1
            assert again.max_abs_mean is first.max_abs_mean
            assert again.mult_max is first.mult_max
            assert (ledger.drawn, ledger.reused) == (1, 1)
        for array in (first.max_abs_mean, first.mult_max):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        outside = [stream_statistics(*args) for _ in range(2)]
        assert sum(panel_calls.values()) == 3
        assert outside[0].max_abs_mean is not outside[1].max_abs_mean
        assert np.array_equal(outside[0].max_abs_mean, first.max_abs_mean)
        assert np.array_equal(outside[1].mult_max, first.mult_max)
        # A new block starts empty.
        with shared_passes() as ledger:
            stream_statistics(*args)
            assert (ledger.drawn, ledger.reused) == (1, 0)
        assert sum(panel_calls.values()) == 4

    def test_other_threads_keep_their_own_ledger(self, panel_calls):
        args = (self.SPEC, 50, 3, 2)
        with shared_passes() as ledger:
            stream_statistics(*args)
            worker = threading.Thread(target=stream_statistics, args=args)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            assert (ledger.drawn, ledger.reused) == (1, 0)
        assert sum(panel_calls.values()) == 2

    def test_reduction_is_part_of_the_key(self, panel_calls):
        args = (self.SPEC, 50, 3, 2, self.SCHEME, self.MULT)
        with shared_passes() as ledger:
            maxima = stream_statistics(*args)
            # A request without a reduction keeps per-replication vectors only.
            assert maxima.reduced is None
            assert all(array.shape == (50,) for array in maxima if array is not None)
            # A request that names a reduction draws the stream again ...
            gram = stream_statistics(*args, reduction=MeanGram(1.0))
            assert sum(panel_calls.values()) == 2
            assert gram.reduced.shape == (2,) and not gram.reduced.flags.writeable
            assert np.array_equal(gram.max_abs_mean, maxima.max_abs_mean)
            assert np.array_equal(gram.mult_max, maxima.mult_max)
            # ... and each request is then served by its own entry.
            assert stream_statistics(*args) is maxima
            assert stream_statistics(*args, reduction=MeanGram(1.0)) is gram
            assert stream_statistics(*args, reduction=MeanGram(2.0)) is not gram
            assert (ledger.drawn, ledger.reused) == (3, 2)
            assert ledger.kept_bytes == 0
        # Each entry keeps three (reps,) vectors: the two maxima and the
        # quadratic block term; each Gram entry its two sums.
        assert ledger.kept_bytes == 3 * 3 * 50 * 8 + 2 * 2 * 8
        assert len(ledger) == 0
        assert [(record["reduction"], record["served"]) for record in ledger.passes] == \
            [(None, 1), ("MeanGram", 1), ("MeanGram", 0)]

    def test_plain_request_has_no_multiplier_statistic(self):
        stats = stream_statistics(self.SPEC, 20, 3, 2)
        assert stats.mult_max is None
        with pytest.raises(ValueError, match="scheme"):
            stream_statistics(self.SPEC, 20, 3, 2, scheme=self.SCHEME)
        with pytest.raises(BlockSchemeError, match="n=4"):
            stream_statistics(self.SPEC, 20, 3, 2, make_blocks(4, 2), self.MULT)

    @settings(max_examples=15, deadline=None)
    @given(reps=st.integers(1, 30), seed=st.integers(0, 2**32), purpose=st.integers(0, 10),
           b=st.sampled_from([1, 2, 8]))
    def test_copies_are_the_kernels_on_differences(self, reps, seed, purpose, b):
        scheme = make_blocks(8, b)
        stats = stream_statistics(self.SPEC, reps, seed, purpose, scheme, self.MULT,
                                  copies=True, reduction=MeanGram(1.0))
        panels, copies = (draw_panels(self.SPEC, seed, stream, purpose, 0, reps)
                          for stream in (STREAM_PANEL, STREAM_COPY))
        diff = panels - copies
        eps = batch_multipliers(self.MULT, scheme.count, seed, purpose, 0, reps)
        means = diff.mean(axis=1)
        assert np.array_equal(stats.reduced, reference_reduction(MeanGram(1.0), means))
        assert np.array_equal(stats.max_abs_mean, batch_max_abs_mean(diff))
        assert np.array_equal(stats.mult_max,
                              batch_multiplier_max(batch_block_sums(diff, scheme), eps, 8))


    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpu"])
    def test_no_chunk_sized_panel(self, cpus, monkeypatch):
        # The draw pool reduces each block of replications where it drew it,
        # so one chunk's statistics never hold a chunk of panels at once.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        spec = DgpSpec("truncated_var1", n=128, p=20, phi=0.5, truncation=3.0)
        tracemalloc.start()
        try:
            stream_statistics(spec, DEFAULT_CHUNK, 3, 2, make_blocks(128, 8), self.MULT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * DEFAULT_CHUNK * spec.n * spec.p * 8


def reference_reduction(reduction, means):
    """A reduction of whole (reps, p) means, as the estimators once computed it
    from kept means: floating sums over ``DEFAULT_CHUNK`` slices in order,
    counts and maxima at once."""
    chunks = [means[start : start + DEFAULT_CHUNK]
              for start in range(0, len(means), DEFAULT_CHUNK)]
    absmeans, p = np.abs(means), means.shape[1]
    if isinstance(reduction, MeanGram):
        acc = np.zeros(2)
        for chunk in chunks:
            sums = np.einsum("ij->i", chunk)
            squares = (np.einsum("ij,ij->", chunk, chunk), np.einsum("i,i->", sums, sums))
            acc += np.multiply(reduction.scale**2, squares)
        return acc
    if isinstance(reduction, PowerSums):
        out = []
        for q in reduction.orders:
            acc, acc2 = np.zeros(p), np.zeros(p)
            for chunk in chunks:
                powered = np.abs(chunk) ** q
                acc += powered.sum(axis=0)
                acc2 += (powered**2).sum(axis=0)
            out.append((acc, acc2))
        return np.array(out)
    if isinstance(reduction, Exceedances):
        return (absmeans >= np.array(reduction.levels)[:, None, None]).sum(axis=1)
    return np.where(absmeans <= reduction.U, absmeans, 0.0).max(axis=1)


REDUCTIONS = [MeanGram(math.sqrt(8)), PowerSums((1.0, 2.0, 3.0)),
              Exceedances(tuple(0.3 * np.geomspace(0.25, 2.0, 8))), MaxBelow(0.3)]


class TestReductions:
    """Each reduction, folded in while the stream is drawn, equals the same
    reduction of the serial panels of ``tests/conftest.py``, bit for bit."""

    SPEC = DgpSpec("var1", n=8, p=3, phi=0.4)
    SCHEME = make_blocks(8, 2)
    REPS = DEFAULT_CHUNK + 30  # two chunks, the second one short

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpu"])
    @pytest.mark.parametrize("reduction", REDUCTIONS, ids=lambda r: type(r).__name__)
    def test_matches_serial_panels(self, reduction, cpus, monkeypatch):
        from blocksym import processes

        # Seven replications per block: each chunk spans many blocks.
        monkeypatch.setattr(processes, "_BLOCK_BYTES", 7 * self.SPEC.n * self.SPEC.p * 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        stats = stream_statistics(self.SPEC, self.REPS, 5, 3, self.SCHEME, RADEMACHER,
                                  reduction=reduction)
        panels = draw_panels(self.SPEC, 5, STREAM_PANEL, 3, 0, self.REPS)
        eps = batch_multipliers(RADEMACHER, self.SCHEME.count, 5, 3, 0, self.REPS)
        want = reference_reduction(reduction, panels.mean(axis=1))
        assert stats.reduced.dtype == want.dtype and np.array_equal(stats.reduced, want)
        assert np.array_equal(stats.max_abs_mean, batch_max_abs_mean(panels))
        assert np.array_equal(stats.mult_max, mult_stat(panels, self.SCHEME, eps))

    def test_mean_gram_sums_are_trace_and_total(self):
        # The two sums are the trace and 1^T G 1 of the (p, p) Gram G of the
        # scaled column means over both chunks.
        scale = math.sqrt(8)
        stats = stream_statistics(self.SPEC, self.REPS, 5, 3, reduction=MeanGram(scale))
        scaled = scale * draw_panels(self.SPEC, 5, STREAM_PANEL, 3, 0, self.REPS).mean(axis=1)
        gram = scaled.T @ scaled
        assert stats.reduced == pytest.approx([np.trace(gram), gram.sum()], rel=1e-12)

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpu"])
    def test_several_reductions_in_one_pass(self, cpus, panel_calls, monkeypatch):
        # One pass folds every named reduction; each part equals its
        # stand-alone request and the serial panels, and inside a block it
        # serves every later request for that part alone.
        from blocksym import processes

        monkeypatch.setattr(processes, "_BLOCK_BYTES", 7 * self.SPEC.n * self.SPEC.p * 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        args = (self.SPEC, self.REPS, 5, 3)
        parts = tuple(REDUCTIONS[1:])
        means = draw_panels(self.SPEC, 5, STREAM_PANEL, 3, 0, self.REPS).mean(axis=1)
        with shared_passes() as ledger:
            stats = stream_statistics(*args, reduction=parts)
            assert stats.mult_max is None and len(stats.reduced) == len(parts)
            for part, reduced in zip(parts, stats.reduced):
                assert np.array_equal(reduced, reference_reduction(part, means))
                served = stream_statistics(*args, reduction=part)
                assert served.reduced is reduced
                assert served.max_abs_mean is stats.max_abs_mean
            again = stream_statistics(*args, reduction=parts[::-1]).reduced
            assert all(a is b for a, b in zip(again, stats.reduced[::-1]))
            assert (ledger.drawn, ledger.reused, sum(panel_calls.values())) == (1, 4, 1)
            # A reduction that was not named draws a pass of its own, and a
            # tuple with one part kept draws only the other.
            gram = stream_statistics(*args, reduction=REDUCTIONS[0])
            mixed = stream_statistics(*args, reduction=(MeanGram(2.0), parts[0]))
            assert mixed.reduced[1] is stats.reduced[0]
            assert np.array_equal(mixed.reduced[0], reference_reduction(MeanGram(2.0), means))
            assert (ledger.drawn, ledger.reused, sum(panel_calls.values())) == (3, 4, 3)
        # The column maxima that the parts share are counted once.
        assert ledger.kept_bytes == sum(array.nbytes for array in
                                        (stats.max_abs_mean, *stats.reduced,
                                         gram.max_abs_mean, gram.reduced,
                                         mixed.max_abs_mean, mixed.reduced[0]))
        assert [(record["reduction"], record["served"]) for record in ledger.passes] == \
            [(["PowerSums", "Exceedances", "MaxBelow"], 4), ("MeanGram", 0), ("MeanGram", 0)]
        assert all(record["seconds"] >= 0 for record in ledger.passes)
        # Outside a block each part draws its own pass of the same panels.
        for part, reduced in zip(parts, stats.reduced):
            assert np.array_equal(stream_statistics(*args, reduction=part).reduced, reduced)
        assert sum(panel_calls.values()) == 3 + len(parts)

    def test_exceedances_build_no_level_stack(self):
        # Counting level by level holds one (c, p) boolean array at a time,
        # not a (levels, c, p) stack beside the absolute means.
        reduction = Exceedances(tuple(np.geomspace(0.01, 1.0, 8)))
        means = np.random.default_rng(0).normal(0.0, 0.1, (DEFAULT_CHUNK, 1000))
        out = reduction.empty(DEFAULT_CHUNK, 1000)
        tracemalloc.start()
        try:
            reduction.add(out, 0, means)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * means.nbytes
        assert np.array_equal(out, reference_reduction(reduction, means))


FULL_RUN = {
    "dgp": {"kind": "truncated_var1", "n": 16, "p": 3, "phi": 0.5, "truncation": 3.0},
    "scheme": {"b": 4},
    "multiplier": {"kind": "rademacher"},
    "psi": {"kind": "power", "q": 2.0},
    "truncation": {"mode": "fixed", "U": 3.0},
    "r": 2.0,
    "reps": 1000,
    "rho_reps": 1000,
    "seed": 5,
    "checks": ["rho-only", "prop1", "prop2", "theorem1"],
    "tail": {"mode": "subexp", "gamma": 1.0, "phi": 0.5},
}


def kept_bytes(reps, p, orders):
    """The ledger bytes of a run of every Monte Carlo check on a model stream.

    Five streams keep their (reps,) maxima, the rho and mid streams their
    multiplier maxima and quadratic block terms, and the tail stream its
    largest mean below U: ten vectors. No stream keeps (reps, p) means:
    the model stream keeps the two sums of its Gram, and the tail stream its int64
    counts at eight levels per coordinate and two power sums per coordinate
    at each of its ``orders`` orders.
    """
    return 8 * (10 * reps + 2 + 8 * p + 2 * orders * p)


class TestSharedRun:
    def test_one_pass_per_stream(self, tmp_path, panel_calls):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FULL_RUN))
        config = load_config(path)
        out = tmp_path / "out"
        assert run_experiment(config, output_dir=str(out)) == 0
        assert len(panel_calls) == 5
        assert set(panel_calls.values()) == {1}
        meta = json.loads((out / "run_meta.json").read_text())
        streams = meta["panel_streams"]
        reps, p = config.reps, config.dgp.p
        # Every pass goes through the ledger, so the record counts them all.
        # The run names the tail stream's reductions in one request, which
        # serves prop2's exceedance count, split and moments and the tail fit.
        assert streams["drawn"] == sum(panel_calls.values())
        assert {key: streams[key] for key in ("drawn", "reused", "kept_bytes")} == \
            {"drawn": 5, "reused": 7, "kept_bytes": kept_bytes(reps, p, orders=1)}

        # theorem1's lhs and Hoeffding step read the mid stream that prop1
        # reads, whose rhs is its lhs.
        prop1, theorem1 = (json.loads((out / f"{name}.json").read_text())
                           for name in ("prop1", "theorem1"))
        hoeffding = theorem1["margins"][1]
        assert hoeffding["name"] == "hoeffding-step"
        assert hoeffding["lhs"] == pytest.approx(prop1["mid"]["mean"], rel=1e-12)
        assert theorem1["lhs"] == prop1["lhs"] == prop1["rhs"]

        # The same check built outside a run draws its own panels and
        # reports the same numbers.
        report = json.loads((out / "prop2.json").read_text())
        del report["config"], report["diagnostics"]["remainder_inputs"]
        rho = RhoEstimate(**report["rho"])
        alone = verify_prop2(config.dgp, config.scheme, config.multiplier, config.psi,
                             3.0, config.r, config.reps, rho, config.seed)
        assert json.loads(json.dumps(alone.to_json_dict())) == report

    @pytest.mark.parametrize("tail, reread, orders", [({"mode": "lq"}, "PowerSums", 2),
                                                      (FULL_RUN["tail"], "Exceedances", 1)],
                             ids=["lq", "subexp"])
    def test_reread_means_streams_are_drawn_once(self, tmp_path, panel_calls, monkeypatch,
                                                 tail, reread, orders):
        # With q = 3 the lq moment is read at q = 2 (prop2) and at q = 3
        # (theorem1), and both reads name both orders; the sub-exponential
        # fit reads the counts that prop2's exceedance count asked for. Each
        # read is of the tail stream, whose one pass the run drew up front.
        from blocksym import gaussian, psi, verify

        reads = Counter()

        def counting(spec, reps, seed, purpose, *args, reduction=None, **kw):
            reads[purpose, type(reduction).__name__] += 1
            return stream_statistics(spec, reps, seed, purpose, *args, reduction=reduction,
                                     **kw)

        for module in (gaussian, psi, verify):
            monkeypatch.setattr(module, "stream_statistics", counting)
        obj = dict(FULL_RUN, psi={"kind": "power", "q": 3.0}, checks=["prop2", "theorem1"],
                   tail=tail)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        config = load_config(path)
        out = tmp_path / "out"
        assert run_experiment(config, output_dir=str(out)) == 0
        assert reads[PURPOSE_TAIL, reread] == 2
        assert len(panel_calls) == 5
        assert set(panel_calls.values()) == {1}
        meta = json.loads((out / "run_meta.json").read_text())
        streams = meta["panel_streams"]
        reps, p = config.reps, config.dgp.p
        assert {key: streams[key] for key in ("drawn", "reused", "kept_bytes")} == \
            {"drawn": 5, "reused": 6, "kept_bytes": kept_bytes(reps, p, orders)}

    def test_run_record_lists_each_pass(self, tmp_path):
        # run_meta.json lists the passes in draw order: one per (stream,
        # purpose), each with its request and the later requests it served.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FULL_RUN))
        config = load_config(path)
        out = tmp_path / "out"
        assert run_experiment(config, output_dir=str(out)) == 0
        streams = json.loads((out / "run_meta.json").read_text())["panel_streams"]
        passes = streams["passes"]
        assert len(passes) == streams["drawn"]
        assert len({record["purpose"] for record in passes}) == 5
        assert sum(record["served"] for record in passes) == streams["reused"]
        assert passes[0].pop("seconds") >= 0
        assert passes[0] == {"purpose": PURPOSE_MODEL, "reps": config.rho_reps,
                             "n": config.dgp.n, "p": config.dgp.p, "multipliers": False,
                             "copies": False, "reduction": "MeanGram", "served": 0}
        # prop1 draws the mid stream, and prop2 and theorem1 read it again.
        mid = next(record for record in passes if record["purpose"] == PURPOSE_MID)
        assert (mid["multipliers"], mid["reduction"], mid["served"]) == (True, None, 2)
        assert PURPOSE_LHS not in {record["purpose"] for record in passes}
        # One pass of the tail stream serves prop2's three reads and the tail fit.
        tail = next(record for record in passes if record["purpose"] == PURPOSE_TAIL)
        assert (tail["reduction"], tail["served"]) == \
            (["Exceedances", "MaxBelow", "PowerSums"], 4)

    def test_run_record_times_passes_and_stages(self, tmp_path):
        # run_meta.json gives each pass's seconds and each stage's, and the
        # stages, which do not overlap, fit inside the run.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FULL_RUN))
        config = load_config(path)
        out = tmp_path / "out"
        assert run_experiment(config, output_dir=str(out)) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        stages = meta["stages"]
        assert set(stages) == {"model", "rho", "truncation", "tail", *FULL_RUN["checks"]}
        seconds = [*stages.values(), *(record["seconds"]
                                       for record in meta["panel_streams"]["passes"])]
        assert all(value >= 0 for value in seconds)
        assert sum(stages.values()) <= meta["duration_seconds"]
