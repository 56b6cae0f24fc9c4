import json
import math
import os
import re
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocksym.blocking import (
    BlockScheme,
    BlockSchemeError,
    Exceedances,
    MaxBelow,
    MultiplierSpec,
    PowerSums,
    _max_last,
    batch_block_sums,
    batch_max_abs_mean,
    batch_multiplier_max,
    make_blocks,
    recorded_passes,
    stream_statistics,
)
from blocksym.cli import load_config, run_experiment
from blocksym.gaussian import RhoEstimate, simulate_max_statistics
from blocksym.processes import MAX_BLOCK_REPS, DgpSpec, marginal_spec
from blocksym.seeding import (
    PURPOSE_DEFAULT,
    PURPOSE_MID,
    PURPOSE_NORM,
    PURPOSE_TAIL,
    STREAM_COPY,
    STREAM_PANEL,
    substream_keys,
)
from blocksym.verify import tail_levels, verify_prop2
from conftest import batch_multipliers, block_bounds, draw_panels, pass_multipliers

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

    def test_count_is_n_over_b(self):
        # A scheme holds only n and b, so no count can disagree with them: a
        # hand-built count of 3 for n = 8, b = 2 once reached the multiplier
        # kernel on a draw-pool thread and failed there with a broadcast error.
        assert BlockScheme(n=8, b=2).count == 4
        with pytest.raises(TypeError):
            BlockScheme(n=8, b=2, count=3)


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

    def test_block_rows_do_not_depend_on_its_length(self):
        whole = batch_multipliers(RADEMACHER, 5, 7, 2, 0, 10)
        assert np.array_equal(batch_multipliers(RADEMACHER, 5, 7, 2, 0, 7), whole[:7])
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

    @pytest.mark.parametrize("shape", [(2048, 1), (2048, 2), (127, 2), (128, 2), (300, 32),
                                       (300, 33), (2048, 1000), (40, 64, 3), (64, 256, 1),
                                       (100000, 2), (10000, 20), (4, 512, 3), (2, 3, 200, 5)])
    def test_short_axis_maxima_are_numpys(self, shape):
        # Taken column by column or along the last axis, by shape, the
        # maxima are x.max(axis=-1) bit for bit, over any leading axes: NaN,
        # infinities and signed zeros included, in any column of a row.
        x = np.random.default_rng(2).standard_normal(shape)
        flat = x.reshape(-1)
        flat[::97], flat[5::101], flat[7::103] = np.nan, np.inf, -np.inf
        flat[9::11], flat[3::13] = 0.0, -0.0
        rows = x.reshape(-1, shape[-1])
        rows[0], rows[1], rows[2], rows[3] = np.nan, -np.inf, -0.0, 0.0
        rows[4, 0], rows[5, -1], rows[6, 0], rows[6, 1:] = np.nan, np.nan, -0.0, 0.0
        assert _max_last(x).tobytes() == x.max(axis=-1).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["iid_gaussian", "bounded_rademacher"]),
           mult=st.sampled_from(["rademacher", "uniform_sym"]),
           n=st.sampled_from([1, 4, 6, 16]), p=st.integers(1, 3), full_block=st.booleans(),
           reps=st.integers(1, 40), seed=st.integers(0, 2**32), purpose=st.integers(0, 10))
    # One column, which numpy sums pairwise from 8 points on.
    @example(kind="iid_gaussian", mult="rademacher", n=4, p=1, full_block=False, reps=2,
             seed=0, purpose=0)
    @example(kind="iid_gaussian", mult="uniform_sym", n=16, p=1, full_block=True, reps=40,
             seed=0, purpose=0)
    def test_simulated_statistics_are_the_kernels(self, kind, mult, n, p, full_block,
                                                  reps, seed, purpose):
        spec = DgpSpec(kind, n=n, p=p)
        scheme = make_blocks(n, n if full_block else 1)
        mult = MultiplierSpec(mult)
        stats = stream_statistics(spec, reps, seed, purpose, scheme, mult)
        panels = draw_panels(spec, seed, STREAM_PANEL, purpose, 0, reps)
        eps = pass_multipliers(spec, mult, scheme.count, seed, purpose, 0, reps)
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
    """Counts passes by (seed, purpose, reps), from the one call that keys a
    pass's panel blocks, ``substream_keys(seed, STREAM_PANEL, purpose,
    range(0, reps, L))``."""
    from blocksym import blocking

    calls = Counter()

    def counting(seed, stream, purpose, firsts):
        if stream == STREAM_PANEL:
            calls[(seed, purpose, firsts.stop)] += 1
        return substream_keys(seed, stream, purpose, firsts)

    monkeypatch.setattr(blocking, "substream_keys", counting)
    return calls


class TestStreamStatistics:
    SPEC = DgpSpec("var1", n=8, p=3, phi=0.4)
    SCHEME = make_blocks(8, 2)
    MULT = MultiplierSpec("rademacher")

    def test_every_call_draws(self, panel_calls):
        # Nothing is kept between calls: each draws its own pass of the same
        # panels, and each pass's arrays are read-only.
        args = (self.SPEC, 50, 3, 2, self.SCHEME, self.MULT)
        first, again = stream_statistics(*args), stream_statistics(*args)
        assert sum(panel_calls.values()) == 2
        assert first.max_abs_mean is not again.max_abs_mean
        for a, b in zip(first[:3], again[:3]):
            assert np.array_equal(a, b)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert first.reps == 50 and first.reduced == {}

    def test_read_names_a_reduction_the_pass_did_not_fold(self, panel_calls):
        sums = PowerSums(2.0)
        stats = stream_statistics(self.SPEC, 50, 3, 2, reductions=(sums, sums))
        assert list(stats.reduced) == [sums]  # named twice, folded once
        assert stats.read(sums).shape == (2, 3) and not stats.read(sums).flags.writeable
        for missing in (PowerSums(3.0), MaxBelow(0.5), Exceedances((0.5,))):
            with pytest.raises(ValueError, match=re.escape(repr(missing))):
                stats.read(missing)
        with pytest.raises(ValueError, match=r"MaxBelow\(U=0\.5\).*no reduction"):
            stream_statistics(self.SPEC, 50, 3, 2).read(MaxBelow(0.5))
        # A failed read draws nothing.
        assert sum(panel_calls.values()) == 2

    def test_recorded_passes_list_each_pass_in_draw_order(self, panel_calls):
        args = (self.SPEC, 50, 3)
        with recorded_passes() as passes:
            stream_statistics(*args, 2, self.SCHEME, self.MULT)
            stream_statistics(*args, 4, reductions=(MaxBelow(0.5), PowerSums(2.0)))
            with recorded_passes() as inner:
                stream_statistics(*args, 6, copies=True, scheme=self.SCHEME, mult=self.MULT)
            # A thread keeps its own context, so its pass is not recorded here.
            worker = threading.Thread(target=stream_statistics, args=(*args, 2))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
        stream_statistics(*args, 2)
        assert sum(panel_calls.values()) == 5
        assert all(record.pop("seconds") >= 0 for record in passes + inner)
        assert all(record.pop("block_seconds") > 0 for record in passes + inner)
        common = {"reps": 50, "n": 8, "p": 3}
        assert passes == [
            dict(common, purpose=2, multipliers=True, copies=False, reductions=[]),
            dict(common, purpose=4, multipliers=False, copies=False,
                 reductions=["MaxBelow", "PowerSums"]),
        ]
        assert inner == [dict(common, purpose=6, multipliers=True, copies=True, reductions=[])]

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_block_seconds_fit_in_the_pool(self, cpus, monkeypatch):
        # Each pass's blocks, timed on the threads that ran them, sum to more
        # than nothing and to no more than draw_workers threads busy for the
        # whole pass: block_seconds / (draw_workers * seconds) is the pool's
        # utilisation.
        from blocksym import blocking, processes

        monkeypatch.setattr(processes, "_BLOCK_BYTES", 50 * self.SPEC.n * self.SPEC.p * 8)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        with recorded_passes() as passes:
            stream_statistics(self.SPEC, 3 * MAX_BLOCK_REPS, 3, 2, self.SCHEME, self.MULT)
            stream_statistics(self.SPEC, 10, 3, 4, reductions=(PowerSums(2.0),))
        assert blocking.draw_workers() == cpus and len(passes) == 2
        for record in passes:
            assert 0 < record["block_seconds"] <= cpus * record["seconds"]

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
                                  copies=True, reductions=(PowerSums(2.0),))
        panels, copies = (draw_panels(self.SPEC, seed, stream, purpose, 0, reps)
                          for stream in (STREAM_PANEL, STREAM_COPY))
        diff = panels - copies
        eps = pass_multipliers(self.SPEC, self.MULT, scheme.count, seed, purpose, 0, reps)
        means = diff.mean(axis=1)
        assert np.array_equal(stats.read(PowerSums(2.0)),
                              reference_reduction(PowerSums(2.0), means, self.SPEC))
        assert np.array_equal(stats.max_abs_mean, batch_max_abs_mean(diff))
        assert np.array_equal(stats.mult_max,
                              batch_multiplier_max(batch_block_sums(diff, scheme), eps, 8))


    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpu"])
    def test_no_chunk_sized_panel(self, cpus, monkeypatch):
        # The draw pool reduces each block of replications where it drew it,
        # so a pass of the most replications a block may hold never holds
        # that many panels at once.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        spec = DgpSpec("truncated_var1", n=128, p=20, phi=0.5, truncation=3.0)
        tracemalloc.start()
        try:
            stream_statistics(spec, MAX_BLOCK_REPS, 3, 2, make_blocks(128, 8), self.MULT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * MAX_BLOCK_REPS * spec.n * spec.p * 8

    def test_tail_reductions_hold_no_means_buffer(self, monkeypatch):
        # One replication per block (n = 8, p = 65536 is 4 MiB of panel) on
        # two workers: the power sums fold each block's own means,
        # so the pass peaks at a few blocks, not at the 64 x p means of the
        # pass (32 MiB) nor at a buffer of them.
        from blocksym import processes

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        spec, reps = DgpSpec("var1", n=8, p=65536, phi=0.4), 64
        block = spec.n * spec.p * 8
        assert processes._BLOCK_BYTES // block == 1
        tracemalloc.start()
        try:
            stats = stream_statistics(spec, reps, 3, PURPOSE_TAIL,
                                      reductions=(PowerSums(2.0), PowerSums(3.0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.read(PowerSums(2.0)).shape == (2, spec.p)
        assert peak < 4 * block

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpu"])
    def test_full_suite_shape_with_a_partial_last_block(self, cpus, monkeypatch):
        # The full_suite pass: 204 replications per time-major block, one
        # block straddling replication 2048 (2040..2243), and 10000
        # replications end 4 rows into the last block. Every statistic
        # equals the kernels on the reference panels, bit for bit, checked
        # 2048 replications at a time.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        spec = DgpSpec("truncated_var1", n=128, p=20, phi=0.5, truncation=3.0)
        scheme, reps, seed = make_blocks(128, 8), 10_000, 11
        stats = stream_statistics(spec, reps, seed, PURPOSE_MID, scheme, self.MULT)
        assert block_bounds(spec, 2040, 2050) == [(2040, 2244)]
        assert block_bounds(spec, 9999, 10000) == [(9996, 10200)]
        for start in range(0, reps, MAX_BLOCK_REPS):
            stop = min(start + MAX_BLOCK_REPS, reps)
            panels = draw_panels(spec, seed, STREAM_PANEL, PURPOSE_MID, start, stop)
            sums = batch_block_sums(panels, scheme)
            eps = pass_multipliers(spec, self.MULT, scheme.count, seed, PURPOSE_MID, start, stop)
            quad = np.einsum("klp,klp->kp", sums, sums).max(axis=-1) / spec.n
            assert np.array_equal(stats.max_abs_mean[start:stop], batch_max_abs_mean(panels))
            assert np.array_equal(stats.mult_max[start:stop],
                                  batch_multiplier_max(sums, eps, spec.n))
            assert np.array_equal(stats.quad[start:stop], quad)


def reference_reduction(reduction, means, spec=None):
    """A reduction of whole (reps, p) means, as the estimators once computed it
    from kept means: floating sums over the blocks of a pass of ``spec`` in
    order (over one block without ``spec``), counts and maxima at once."""
    bounds = block_bounds(spec, 0, len(means)) if spec else [(0, len(means))]
    blocks = [means[first:end] for first, end in bounds]
    absmeans, p = np.abs(means), means.shape[1]
    if isinstance(reduction, PowerSums):
        acc, acc2 = np.zeros(p), np.zeros(p)
        for block in blocks:
            powered = np.abs(block) ** reduction.order
            acc += powered.sum(axis=0)
            acc2 += (powered**2).sum(axis=0)
        return np.array([acc, acc2])
    if isinstance(reduction, Exceedances):
        return (absmeans >= np.array(reduction.levels)[:, None, None]).sum(axis=1)
    return np.where(absmeans <= reduction.U, absmeans, 0.0).max(axis=1)


REDUCTIONS = [PowerSums(3.0),
              Exceedances(tuple(0.3 * np.geomspace(0.25, 2.0, 8))), MaxBelow(0.3)]


class TestReductions:
    """Each reduction, folded in while the stream is drawn, equals the same
    reduction of the serial panels of ``tests/conftest.py``, bit for bit."""

    SPEC = DgpSpec("var1", n=8, p=3, phi=0.4)
    SCHEME = make_blocks(8, 2)
    REPS = MAX_BLOCK_REPS + 30

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpu"])
    @pytest.mark.parametrize("reduction", REDUCTIONS, ids=lambda r: type(r).__name__)
    def test_matches_serial_panels(self, reduction, cpus, monkeypatch):
        from blocksym import processes

        # Seven replications per block: 297 blocks, the last one short.
        monkeypatch.setattr(processes, "_BLOCK_BYTES", 7 * self.SPEC.n * self.SPEC.p * 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        stats = stream_statistics(self.SPEC, self.REPS, 5, 3, self.SCHEME, RADEMACHER,
                                  reductions=(reduction,))
        panels = draw_panels(self.SPEC, 5, STREAM_PANEL, 3, 0, self.REPS)
        eps = pass_multipliers(self.SPEC, RADEMACHER, self.SCHEME.count, 5, 3, 0, self.REPS)
        want = reference_reduction(reduction, panels.mean(axis=1), self.SPEC)
        got = stats.read(reduction)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(stats.max_abs_mean, batch_max_abs_mean(panels))
        assert np.array_equal(stats.mult_max, mult_stat(panels, self.SCHEME, eps))

    @pytest.mark.parametrize("copies", [False, True], ids=["panels", "copies"])
    def test_same_bytes_for_any_worker_count(self, copies, monkeypatch):
        # 21 blocks of 300 replications, the last one short: however many
        # folds the worker count lets be entered at once, every statistic
        # and reduction is bit for bit the one-worker pass.
        from blocksym import processes

        monkeypatch.setattr(processes, "_BLOCK_BYTES", 300 * self.SPEC.n * self.SPEC.p * 8)
        reps = 3 * MAX_BLOCK_REPS + 77
        drawn = {}
        for cpus in (1, 2, 8):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            stats = stream_statistics(self.SPEC, reps, 5, 3, self.SCHEME, RADEMACHER,
                                      copies, REDUCTIONS)
            drawn[cpus] = [array.tobytes() for array in (
                stats.max_abs_mean, stats.mult_max, stats.quad,
                *(stats.read(reduction) for reduction in REDUCTIONS))]
        assert drawn[1] == drawn[2] == drawn[8]

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpu"])
    def test_tail_reductions_fold_in_one_pass(self, cpus, panel_calls, monkeypatch):
        # The tail pass of a run: one draw folds every reduction the checks
        # read, and each equals its reference on the serial panels' means.
        from blocksym import processes

        monkeypatch.setattr(processes, "_BLOCK_BYTES", 7 * self.SPEC.n * self.SPEC.p * 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        U = 0.3
        parts = (Exceedances(tail_levels(U)), MaxBelow(U), PowerSums(2.0), PowerSums(3.0))
        stats = stream_statistics(self.SPEC, self.REPS, 5, PURPOSE_TAIL, reductions=parts)
        assert dict(panel_calls) == {(5, PURPOSE_TAIL, self.REPS): 1}
        assert stats.mult_max is None and list(stats.reduced) == list(parts)
        panels = draw_panels(self.SPEC, 5, STREAM_PANEL, PURPOSE_TAIL, 0, self.REPS)
        means = panels.mean(axis=1)
        for part in parts:
            want = reference_reduction(part, means, self.SPEC)
            assert stats.read(part).dtype == want.dtype
            assert np.array_equal(stats.read(part), want)
        assert np.array_equal(stats.max_abs_mean, batch_max_abs_mean(panels))

    def test_exceedances_build_no_level_stack(self):
        # Counting level by level holds one (c, p) boolean array at a time,
        # not a (levels, c, p) stack beside the absolute means.
        reduction = Exceedances(tuple(np.geomspace(0.01, 1.0, 8)))
        means = np.random.default_rng(0).normal(0.0, 0.1, (MAX_BLOCK_REPS, 1000))
        out = reduction.empty(MAX_BLOCK_REPS, 1000)
        tracemalloc.start()
        try:
            reduction.add(out, 0, means)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * means.nbytes
        assert np.array_equal(out, reference_reduction(reduction, means))

    @pytest.mark.parametrize("reduction", [MaxBelow(0.1), PowerSums(2.0), PowerSums(3.0)],
                             ids=repr)
    def test_tail_reduction_holds_one_buffer(self, reduction):
        # |m|, its power and its square, or |m| zeroed above U, are worked
        # in one (c, p) buffer: no second (c, p) float array beside it.
        means = np.random.default_rng(1).normal(0.0, 0.1, (MAX_BLOCK_REPS, 1000))
        out = reduction.empty(MAX_BLOCK_REPS, 1000)
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
    "seed": 5,
    "checks": ["rho-only", "prop1", "prop2", "theorem1"],
    "tail": {"mode": "subexp", "gamma": 1.0, "phi": 0.5},
}


def run_config(tmp_path, obj):
    """Run the config ``obj``; its config and its run_meta.json."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    config = load_config(path)
    out = tmp_path / "out"
    assert run_experiment(config, output_dir=str(out)) == 0
    return config, json.loads((out / "run_meta.json").read_text())


class TestRunPasses:
    """A run draws each (stream, purpose) once and hands its statistics to
    every check that reads it."""

    @pytest.mark.parametrize("obj", [FULL_RUN,
                                     dict(FULL_RUN, psi={"kind": "power", "q": 3.0},
                                          checks=["prop2", "theorem1"], tail={"mode": "lq"})],
                             ids=["full", "lq-q3"])
    def test_one_pass_per_stream(self, tmp_path, panel_calls, obj):
        config, meta = run_config(tmp_path, obj)
        assert len(panel_calls) == 3
        assert set(panel_calls.values()) == {1}
        streams = meta["panel_streams"]
        assert set(streams) == {"drawn", "passes"} and streams["drawn"] == 3
        passes = streams["passes"]
        assert all(record.pop("seconds") >= 0 for record in passes)
        assert all(record.pop("block_seconds") > 0 for record in passes)
        # In draw order: tail, mid, marginal. The tail pass, drawn with the
        # multipliers that rho reads, folds every reduction of the chain.
        reps, n, p = config.reps, config.dgp.n, config.dgp.p
        tail_reads = (["Exceedances", "MaxBelow", "PowerSums"] if obj is FULL_RUN
                      else ["MaxBelow", "PowerSums", "PowerSums"])
        assert passes == [
            {"purpose": PURPOSE_TAIL, "reps": reps, "n": n, "p": p, "multipliers": True,
             "copies": False, "reductions": tail_reads},
            {"purpose": PURPOSE_MID, "reps": reps, "n": n, "p": p, "multipliers": True,
             "copies": False, "reductions": []},
            {"purpose": PURPOSE_NORM, "reps": reps, "n": 1, "p": p, "multipliers": False,
             "copies": False, "reductions": []},
        ]
        report = json.loads((tmp_path / "out" / "prop2.json").read_text())
        assert "gaussian_model" not in report["config"] and "rho_reps" not in report["config"]
        if "rho-only" in config.checks:
            rho_only = json.loads((tmp_path / "out" / "rho-only.json").read_text())
            assert rho_only["params"]["reps"] == rho_only["rho"]["reps"] == reps
            assert set(rho_only["diagnostics"]) == {"cdf_grid"}

    def test_rho_reads_the_tail_pass(self, tmp_path, monkeypatch):
        # rho's plain and multiplier samples are the tail pass's maxima on
        # the sqrt(n) scale, and its Gaussian sample is the closed-form
        # model's at the run's seed: the rho-only report's quantile grid is
        # that of these three samples.
        from blocksym import cli
        from blocksym.cli import _quantile_grid
        from blocksym.gaussian import estimate_gaussian_model, sample_gaussian_max

        drawn = []

        def keeping(*args, **kwargs):
            drawn.append(stream_statistics(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(cli, "stream_statistics", keeping)
        config, _ = run_config(tmp_path, FULL_RUN)
        (tail,) = [stats for stats in drawn if stats.purpose == PURPOSE_TAIL]
        assert (tail.scheme, tail.mult) == (config.scheme, config.multiplier)
        root_n = math.sqrt(config.dgp.n)
        samples = {"plain": root_n * tail.max_abs_mean, "multiplier": root_n * tail.mult_max,
                   "gaussian": sample_gaussian_max(estimate_gaussian_model(config.dgp),
                                                   config.reps, config.seed)}
        report = json.loads((tmp_path / "out" / "rho-only.json").read_text())
        assert report["diagnostics"]["cdf_grid"] == json.loads(json.dumps(
            _quantile_grid(samples)))
        assert report["rho"] == json.loads(json.dumps(
            RhoEstimate.from_samples(*samples.values()).to_json_dict()))

    def test_optimal_truncation_draws_the_tail_stream_twice(self, tmp_path, monkeypatch):
        # U reads rho: the tail stream is drawn with multipliers for rho and
        # again, over the same panels, for the reductions that read U.
        from blocksym import cli

        drawn = []

        def keeping(*args, **kwargs):
            drawn.append(stream_statistics(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(cli, "stream_statistics", keeping)
        obj = dict(FULL_RUN, checks=["prop2", "theorem1"],
                   truncation={"mode": "optimal", "phi": 0.5})
        config, meta = run_config(tmp_path, obj)
        passes = meta["panel_streams"]["passes"]
        assert meta["panel_streams"]["drawn"] == 4
        assert [(record["purpose"], record["multipliers"], record["reductions"])
                for record in passes] == [
            (PURPOSE_NORM, False, []), (PURPOSE_TAIL, True, []),
            (PURPOSE_TAIL, False, ["Exceedances", "MaxBelow", "PowerSums"]),
            (PURPOSE_MID, True, [])]
        tails = [stats for stats in drawn if stats.purpose == PURPOSE_TAIL]
        assert len(tails) == 2
        assert np.array_equal(tails[0].max_abs_mean, tails[1].max_abs_mean)
        assert set(meta["stages"]) == {"marginal", "tail", "rho", "truncation", "mid",
                                       *obj["checks"]}

    def test_rho_only_draws_one_tail_pass(self, tmp_path):
        # Without a chain check a run draws the tail stream once, with
        # multipliers and no reduction, and reads rho from its reps
        # replications; the echo leaves out the gauge and the truncation,
        # which no chosen check reads.
        obj = {key: value for key, value in FULL_RUN.items()
               if key not in ("psi", "truncation", "tail")}
        config, meta = run_config(tmp_path, dict(obj, checks=["rho-only"], reps=2000))
        passes = meta["panel_streams"]["passes"]
        assert meta["panel_streams"]["drawn"] == 1
        assert [(record["purpose"], record["reps"], record["multipliers"],
                 record["reductions"]) for record in passes] == [(PURPOSE_TAIL, 2000, True, [])]
        report = json.loads((tmp_path / "out" / "rho-only.json").read_text())
        assert report["params"]["reps"] == report["rho"]["reps"] == 2000
        assert set(report["config"]) == {"dgp", "scheme", "multiplier", "r", "reps", "seed",
                                         "checks", "tail"}
        assert config.psi is None

    def test_checks_read_the_one_mid_pass(self, tmp_path):
        # theorem1's lhs and Hoeffding step read the mid pass that prop1
        # reads, whose rhs is its lhs.
        run_config(tmp_path, FULL_RUN)
        prop1, theorem1 = (json.loads((tmp_path / "out" / f"{name}.json").read_text())
                           for name in ("prop1", "theorem1"))
        hoeffding = theorem1["margins"][1]
        assert hoeffding["name"] == "hoeffding-step"
        assert hoeffding["lhs"] == pytest.approx(prop1["mid"]["mean"], rel=1e-12)
        assert theorem1["lhs"] == prop1["lhs"] == prop1["rhs"]

    def test_prop2_from_hand_drawn_statistics(self, tmp_path):
        # prop2 built from passes drawn here, each with only what prop2
        # reads, reports what the run wrote.
        config, _ = run_config(tmp_path, FULL_RUN)
        report = json.loads((tmp_path / "out" / "prop2.json").read_text())
        del report["config"], report["diagnostics"]["remainder_inputs"]
        spec, reps, seed, U = config.dgp, config.reps, config.seed, 3.0
        alone = verify_prop2(
            config.psi, U, config.r, RhoEstimate(**report["rho"]),
            mid=stream_statistics(spec, reps, seed, PURPOSE_MID, config.scheme,
                                  config.multiplier),
            tail=stream_statistics(spec, reps, seed, PURPOSE_TAIL, reductions=(MaxBelow(U),)),
            marginal=stream_statistics(marginal_spec(spec), reps, seed, PURPOSE_NORM))
        assert json.loads(json.dumps(alone.to_json_dict())) == report

    def test_run_record_times_passes_and_stages(self, tmp_path):
        # run_meta.json gives each pass's seconds and each stage's, and the
        # stages, which do not overlap, fit inside the run.
        _, meta = run_config(tmp_path, FULL_RUN)
        stages = meta["stages"]
        assert set(stages) == {"rho", "truncation", "tail", "mid", "marginal",
                               *FULL_RUN["checks"]}
        seconds = [*stages.values(), *(record["seconds"]
                                       for record in meta["panel_streams"]["passes"])]
        assert all(value >= 0 for value in seconds)
        assert sum(stages.values()) <= meta["duration_seconds"]
