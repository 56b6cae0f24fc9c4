"""Golden parity of the array keys and raw-bit draws against numpy's own
generators and a pure-Python SplitMix64 reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocksym.blocking import MultiplierSpec, batch_multipliers
from blocksym import processes
from blocksym.processes import DgpSpec
from blocksym.seeding import (
    STREAM_COPY,
    STREAM_MULTIPLIER,
    STREAM_PANEL,
    philox_words,
    substream,
    substream_keys,
)

MASK64 = (1 << 64) - 1


def mix_reference(z: int) -> int:
    """SplitMix64 finalizer on Python integers."""
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def key_words_reference(master_seed: int, *path: int) -> tuple[int, int]:
    word = mix_reference(int(master_seed) & MASK64)
    for coordinate in path:
        word = mix_reference(word ^ mix_reference(int(coordinate) & MASK64))
    return word, mix_reference(word ^ 0xA5A5A5A5A5A5A5A5)


seeds = st.one_of(
    st.integers(min_value=-(2**70), max_value=-1),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=2**64, max_value=2**70),
)
key_arrays = arrays(np.uint64, st.tuples(st.integers(1, 6), st.just(2)),
                    elements=st.integers(0, MASK64))
COUNTS = (1, 7, 8, 9, 17)


def per_replication(seed, stream, purpose, start, stop):
    return [substream(seed, stream, purpose, r) for r in range(start, stop)]


def filled(spec, seed, stream, purpose, start, stop, full=None):
    """Replications start..stop-1 from the filler, as one time-major block
    of ``full``, shape (stop - start, n, p)."""
    out = np.empty((spec.n, full or stop - start, spec.p))
    keys = substream_keys(seed, stream, purpose, start, stop)
    processes._fill(spec, keys, out)
    return out[:, : stop - start].transpose(1, 0, 2)


class TestKeys:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, stream=st.integers(0, 10), purpose=st.integers(0, 2**66),
           start=st.integers(0, 2**40), size=st.integers(0, 5))
    def test_keys_match_python_splitmix(self, seed, stream, purpose, start, size):
        out = substream_keys(seed, stream, purpose, start, start + size)
        expected = [key_words_reference(seed, stream, purpose, r)
                    for r in range(start, start + size)]
        assert out.dtype == np.uint64 and out.shape == (size, 2)
        assert out.tolist() == [list(k) for k in expected]

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, path=st.lists(st.integers(-(2**65), 2**65), max_size=4))
    def test_substream_key_matches_python_splitmix(self, seed, path):
        state = substream(seed, *path).bit_generator.state["state"]
        assert state["key"].tolist() == list(key_words_reference(seed, *path))

    def test_masked_seeds_key_alike(self):
        assert np.array_equal(substream_keys(-1, 1, 0, 0, 3),
                              substream_keys(2**64 - 1, 1, 0, 0, 3))
        assert np.array_equal(substream_keys(2**64 + 5, 1, 0, 0, 3),
                              substream_keys(5, 1, 0, 0, 3))


class TestPhiloxWords:
    @settings(max_examples=40, deadline=None)
    @given(keys=key_arrays, words=st.sampled_from([1, 3, 4, 5, 8, 9]))
    def test_matches_numpy_random_raw(self, keys, words):
        expected = [np.random.Philox(key=k).random_raw(words) for k in keys]
        assert np.array_equal(philox_words(keys, words), expected)

    @pytest.mark.parametrize("words", [1, 3, 4, 5, 8, 9])
    def test_all_ones_key(self, words):
        key = np.full((1, 2), MASK64, dtype=np.uint64)
        expected = np.random.Philox(key=key[0]).random_raw(words)
        assert np.array_equal(philox_words(key, words)[0], expected)


class TestRawBitDraws:
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, purpose=st.integers(0, 10), start=st.integers(0, 2**20),
           count=st.sampled_from(COUNTS))
    def test_rademacher_multipliers_match_integers(self, seed, purpose, start, count):
        out = batch_multipliers(MultiplierSpec("rademacher"), count, seed, purpose,
                                start, start + 4)
        expected = [2.0 * rng.integers(0, 2, size=count) - 1.0
                    for rng in per_replication(seed, STREAM_MULTIPLIER, purpose,
                                               start, start + 4)]
        assert np.array_equal(out, expected)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, purpose=st.integers(0, 10), start=st.integers(0, 2**20),
           count=st.sampled_from(COUNTS))
    def test_uniform_multipliers_match_uniform(self, seed, purpose, start, count):
        out = batch_multipliers(MultiplierSpec("uniform_sym"), count, seed, purpose,
                                start, start + 4)
        half = np.sqrt(3.0)
        expected = [rng.uniform(-half, half, size=count)
                    for rng in per_replication(seed, STREAM_MULTIPLIER, purpose,
                                               start, start + 4)]
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n, p", [(1, 1), (7, 1), (4, 2), (3, 3), (17, 1)])
    @pytest.mark.parametrize("seed", [0, -7, 2**63 + 12345])
    def test_bounded_rademacher_chunks_match_integers(self, n, p, seed):
        spec = DgpSpec("bounded_rademacher", n=n, p=p, scale=0.5)
        panels = np.concatenate([filled(spec, seed, STREAM_COPY, 3, start, stop)
                                 for start, stop in ((0, 4), (4, 8), (8, 11))])
        expected = [0.5 * (2.0 * rng.integers(0, 2, size=(n, p)) - 1.0)
                    for rng in per_replication(seed, STREAM_COPY, 3, 0, 11)]
        assert np.array_equal(panels, expected)

    def test_rademacher_innovations_match_integers(self):
        spec = DgpSpec("linear_process", n=5, p=2, coeffs=(1.0, -0.5),
                       innovation="rademacher")
        panels = filled(spec, 8, STREAM_PANEL, 1, 0, 3)
        rows = spec.n + 1  # the panel plus one lag
        for panel, rng in zip(panels, per_replication(8, STREAM_PANEL, 1, 0, 3)):
            e = 2.0 * rng.integers(0, 2, size=(rows, 2)) - 1.0
            assert np.array_equal(panel, e[-spec.n:] - 0.5 * e[-spec.n - 1:-1])

    @pytest.mark.parametrize("spec", [
        DgpSpec("iid_gaussian", n=3, p=2),
        DgpSpec("var1", n=3, p=2, phi=0.5),
    ])
    def test_gaussian_block_reads_its_first_substream(self, spec):
        # The first four replications of a block of six read the substream
        # of replication 0 time-major, all six panels' row t before row
        # t + 1; var1 draws all six initial states before the innovations.
        panels = filled(spec, 5, STREAM_PANEL, 2, 0, 4, full=6)
        rng = substream(5, STREAM_PANEL, 2, 0)
        if spec.kind == "iid_gaussian":
            expected = rng.standard_normal((3, 6, 2))
        else:
            prev = rng.standard_normal((6, 2)) / np.sqrt(1.0 - 0.25)
            e = rng.standard_normal((3, 6, 2))
            expected = np.empty_like(e)
            for t in range(3):
                prev = 0.5 * prev + e[t]
                expected[t] = prev
        assert np.array_equal(panels, expected[:, :4].transpose(1, 0, 2))
