import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocksym.blocking import (
    BlockSchemeError,
    MultiplierSpec,
    batch_block_sums,
    batch_max_abs_mean,
    batch_multiplier_max,
    batch_multipliers,
    block_sums,
    draw_multipliers,
    expand_multipliers,
    make_blocks,
    max_abs_mean,
    multiplier_max_abs_mean,
)
from blocksym.gaussian import simulate_max_statistics
from blocksym.processes import DgpSpec, PanelSample, generate_panels
from blocksym.seeding import STREAM_PANEL


def panel(data):
    data = np.asarray(data, dtype=float)
    return PanelSample(data=data, n=data.shape[0], p=data.shape[1])


finite_panels = arrays(
    dtype=float,
    shape=st.tuples(st.sampled_from([2, 4, 6, 12]), st.integers(1, 4)),
    elements=st.floats(min_value=-100, max_value=100),
)


class TestMakeBlocks:
    def test_basic_partition(self):
        scheme = make_blocks(12, 3)
        assert scheme.count == 4
        assert [list(b) for b in scheme.blocks] == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11],
        ]

    def test_singleton_blocks(self):
        scheme = make_blocks(5, 1)
        assert scheme.count == 5
        assert all(len(b) == 1 for b in scheme.blocks)

    def test_non_divisible_rejected(self):
        with pytest.raises(BlockSchemeError, match="divide"):
            make_blocks(10, 3)

    def test_bounds(self):
        with pytest.raises(BlockSchemeError):
            make_blocks(4, 0)
        with pytest.raises(BlockSchemeError):
            make_blocks(4, 5)

    def test_describe_is_printable(self):
        text = make_blocks(4, 2).describe()
        assert "[1..2]" in text and "[3..4]" in text


class TestBlockSums:
    def test_constant_panel(self):
        pan = panel(np.ones((6, 2)))
        sums = block_sums(pan, make_blocks(6, 2))
        assert np.all(sums == 2.0)

    def test_single_block_is_total(self):
        pan = panel(np.arange(8.0).reshape(4, 2))
        sums = block_sums(pan, make_blocks(4, 4))
        assert np.allclose(sums[0], pan.data.sum(axis=0))

    def test_dimension_mismatch(self):
        with pytest.raises(BlockSchemeError):
            block_sums(panel(np.ones((4, 1))), make_blocks(8, 2))

    @settings(max_examples=50, deadline=None)
    @given(data=finite_panels)
    def test_telescoping(self, data):
        pan = panel(data)
        for b in [x for x in range(1, pan.n + 1) if pan.n % x == 0]:
            sums = block_sums(pan, make_blocks(pan.n, b))
            assert np.allclose(sums.sum(axis=0), pan.data.sum(axis=0), atol=1e-9)


class TestMultipliers:
    def test_rademacher_support(self):
        eps = draw_multipliers(MultiplierSpec("rademacher"), 200, seed=1)
        assert set(np.unique(eps)) <= {-1.0, 1.0}

    def test_uniform_sym_support_and_variance(self):
        eps = draw_multipliers(MultiplierSpec("uniform_sym"), 100_000, seed=2)
        half = np.sqrt(3.0)
        assert np.all(np.abs(eps) <= half)
        # Uniform on [-sqrt(3), sqrt(3)] has unit variance; the variance of
        # eps^2 is 4/5, giving the MC standard error below.
        se = np.sqrt(0.8 / len(eps))
        assert abs((eps**2).mean() - 1.0) < 4 * se

    def test_single_draw(self):
        assert draw_multipliers(MultiplierSpec("rademacher"), 1, seed=3).shape == (1,)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            draw_multipliers(MultiplierSpec("rademacher"), 0, seed=0)

    def test_bounds(self):
        assert MultiplierSpec("rademacher").bound == 1.0
        assert MultiplierSpec("uniform_sym").bound == pytest.approx(np.sqrt(3.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MultiplierSpec("gaussian")


class TestExpand:
    def test_pairs(self):
        eta = expand_multipliers(np.array([2.0, -3.0]), make_blocks(4, 2))
        assert np.array_equal(eta, [2.0, 2.0, -3.0, -3.0])

    def test_singleton_identity(self):
        eps = np.array([1.0, -1.0, 1.0])
        assert np.array_equal(expand_multipliers(eps, make_blocks(3, 1)), eps)

    def test_all_ones(self):
        eta = expand_multipliers(np.ones(3), make_blocks(6, 2))
        assert np.all(eta == 1.0)

    def test_length_mismatch(self):
        with pytest.raises(BlockSchemeError):
            expand_multipliers(np.ones(3), make_blocks(4, 2))


class TestMaxStatistics:
    def test_zero_panel(self):
        assert max_abs_mean(panel(np.zeros((3, 2)))) == 0.0

    def test_hand_value(self):
        pan = panel([[1.0, -3.0], [1.0, 3.0]])
        assert max_abs_mean(pan) == 1.0

    def test_scalar_column(self):
        pan = panel([[1.0], [2.0], [6.0]])
        assert max_abs_mean(pan) == pytest.approx(3.0)

    def test_unit_multipliers_reduce_to_plain(self):
        rng = np.random.default_rng(0)
        pan = panel(rng.standard_normal((12, 3)))
        scheme = make_blocks(12, 3)
        stat = multiplier_max_abs_mean(pan, scheme, np.ones(scheme.count))
        assert stat == pytest.approx(max_abs_mean(pan))

    def test_sign_flip_invariant(self):
        rng = np.random.default_rng(1)
        pan = panel(rng.standard_normal((12, 3)))
        scheme = make_blocks(12, 3)
        stat = multiplier_max_abs_mean(pan, scheme, -np.ones(scheme.count))
        assert stat == pytest.approx(max_abs_mean(pan))

    def test_cancellation(self):
        pan = panel([[1.0], [1.0]])
        scheme = make_blocks(2, 1)
        assert multiplier_max_abs_mean(pan, scheme, np.array([1.0, -1.0])) == 0.0

    def test_matches_row_weighted_panel(self):
        # The block statistic equals the plain statistic of the panel whose
        # rows are scaled by the expanded multipliers.
        rng = np.random.default_rng(2)
        pan = panel(rng.standard_normal((12, 3)))
        scheme = make_blocks(12, 4)
        eps = draw_multipliers(MultiplierSpec("uniform_sym"), scheme.count, seed=9)
        eta = expand_multipliers(eps, scheme)
        weighted = panel(pan.data * eta[:, None])
        assert multiplier_max_abs_mean(pan, scheme, eps) == pytest.approx(
            max_abs_mean(weighted)
        )


@settings(max_examples=40, deadline=None)
@given(data=finite_panels, lam=st.floats(min_value=0.01, max_value=50.0),
       seed=st.integers(0, 1000))
def test_scale_equivariance(data, lam, seed):
    pan = panel(data)
    scaled = panel(lam * data)
    scheme = make_blocks(pan.n, pan.n // 2 if pan.n % 2 == 0 else 1)
    eps = draw_multipliers(MultiplierSpec("rademacher"), scheme.count, seed=seed)
    assert max_abs_mean(scaled) == pytest.approx(lam * max_abs_mean(pan), rel=1e-9)
    assert multiplier_max_abs_mean(scaled, scheme, eps) == pytest.approx(
        lam * multiplier_max_abs_mean(pan, scheme, eps), rel=1e-9, abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(data=finite_panels, seed=st.integers(0, 1000))
def test_coordinate_permutation_invariance(data, seed):
    pan = panel(data)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(pan.p)
    permuted = panel(data[:, perm])
    scheme = make_blocks(pan.n, 2 if pan.n % 2 == 0 else 1)
    eps = draw_multipliers(MultiplierSpec("rademacher"), scheme.count, seed=seed)
    assert max_abs_mean(permuted) == pytest.approx(max_abs_mean(pan))
    assert multiplier_max_abs_mean(permuted, scheme, eps) == pytest.approx(
        multiplier_max_abs_mean(pan, scheme, eps)
    )


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
    def test_single_panel_functions_are_batch_rows(self, stack):
        panels, scheme, eps = stack
        sums = batch_block_sums(panels, scheme)
        plain = batch_max_abs_mean(panels)
        starred = batch_multiplier_max(sums, eps, scheme.n)
        # Every multiplier vector on every panel, the exact oracle's layout.
        grid = batch_multiplier_max(sums, eps[:, None, :], scheme.n)
        for j, data in enumerate(panels):
            pan = panel(data)
            assert np.array_equal(block_sums(pan, scheme), sums[j])
            assert max_abs_mean(pan) == plain[j]
            assert multiplier_max_abs_mean(pan, scheme, eps[j]) == starred[j]
            for i in range(len(eps)):
                assert multiplier_max_abs_mean(pan, scheme, eps[i]) == grid[i, j]

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
        plain, starred = simulate_max_statistics(spec, scheme, mult, reps, seed, purpose)
        panels = np.concatenate(
            [chunk for _, chunk in generate_panels(spec, reps, seed, STREAM_PANEL, purpose)]
        )
        eps = batch_multipliers(mult, scheme.count, seed, purpose, 0, reps)
        root_n = math.sqrt(n)
        assert np.array_equal(plain, root_n * batch_max_abs_mean(panels))
        assert np.array_equal(
            starred, root_n * batch_multiplier_max(batch_block_sums(panels, scheme), eps, n)
        )
