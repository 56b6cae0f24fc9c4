"""Golden parity of the array keys against a pure-Python SplitMix64
reference, of the one generator constructor against numpy's SFC64 seeded
through SeedSequence, and of the panel and multiplier blocks against the
generators of the substream of their first replication."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksym.blocking import MultiplierSpec, make_blocks, stream_statistics
from blocksym import processes, seeding
from blocksym.processes import DgpSpec
from blocksym.seeding import (
    PURPOSE_MID,
    STREAM_MULTIPLIER,
    STREAM_PANEL,
    substream,
    substream_keys,
)
from conftest import batch_multipliers

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
COUNTS = (1, 7, 8, 9, 17)
HALF = np.sqrt(3.0)


def filled(spec, seed, stream, purpose, start, stop, full=None):
    """Replications start..stop-1 from the filler, as one time-major block
    of ``full``, shape (stop - start, n, p)."""
    out = np.empty((spec.n, full or stop - start, spec.p))
    key = substream_keys(seed, stream, purpose, range(start, start + 1))[0]
    processes._fill(spec, seeding.generator(key), stop - start, out)
    return out[:, : stop - start].transpose(1, 0, 2)


class TestKeys:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, stream=st.integers(0, 10), purpose=st.integers(0, 2**66),
           start=st.integers(0, 2**40), size=st.integers(0, 5))
    def test_keys_match_python_splitmix(self, seed, stream, purpose, start, size):
        out = substream_keys(seed, stream, purpose, range(start, start + size))
        expected = [key_words_reference(seed, stream, purpose, r)
                    for r in range(start, start + size)]
        assert out.dtype == np.uint64 and out.shape == (size, 2)
        assert out.tolist() == [list(k) for k in expected]

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, path=st.lists(st.integers(-(2**65), 2**65), max_size=4))
    def test_substream_reads_the_generator_of_its_python_splitmix_key(self, seed, path):
        key = np.array(key_words_reference(seed, *path), dtype=np.uint64)
        assert np.array_equal(substream(seed, *path).integers(0, 2**63, size=8),
                              seeding.generator(key).integers(0, 2**63, size=8))

    @settings(max_examples=20, deadline=None)
    @given(words=st.tuples(st.integers(0, MASK64), st.integers(0, MASK64)))
    def test_generator_is_sfc64_seeded_through_seed_sequence(self, words):
        key = np.array(words, dtype=np.uint64)
        rng = seeding.generator(key)
        expected = np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))
        assert isinstance(rng.bit_generator, np.random.SFC64)
        assert np.array_equal(rng.integers(0, 2**63, size=8), expected.integers(0, 2**63, size=8))
        assert np.array_equal(rng.standard_normal(8), expected.standard_normal(8))

    @pytest.mark.parametrize("replications", [range(0, 2048, 204), range(4096, 4097),
                                              range(2**40, 2**40 + 50, 7), range(3, 3)])
    def test_strided_keys_are_their_replications_keys(self, replications):
        # The first replications of a pass's blocks are keyed at once.
        out = substream_keys(9, STREAM_PANEL, 2, replications)
        assert out.shape == (len(replications), 2)
        assert out.tolist() == [list(key_words_reference(9, STREAM_PANEL, 2, r))
                                for r in replications]

    def test_masked_seeds_key_alike(self):
        assert np.array_equal(substream_keys(-1, 1, 0, range(3)),
                              substream_keys(2**64 - 1, 1, 0, range(3)))
        assert np.array_equal(substream_keys(2**64 + 5, 1, 0, range(3)),
                              substream_keys(5, 1, 0, range(3)))


CONSTRUCTORS = ("Generator", "Philox", "SFC64", "PCG64", "PCG64DXSM", "MT19937",
                "SeedSequence", "RandomState", "default_rng")


def generator_calls(path):
    """The numpy.random functions that a module's code calls, by name:
    np.random.<name>(...), or a bare constructor imported by name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and ast.unparse(func.value) in ("np.random",
                                                                            "numpy.random"):
            found.append(func.attr)
        elif isinstance(func, ast.Name) and func.id in CONSTRUCTORS:
            found.append(func.id)
    return sorted(found)


def test_only_seeding_builds_a_generator():
    # Every draw reads seeding.generator; no other module of the package
    # makes a bit generator or reads numpy's global one.
    package = Path(seeding.__file__).parent
    calls = {path.name: generator_calls(path) for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {
        "seeding.py": ["Generator", "SFC64"]}


def block_rows(mult, count, seed, purpose, first, rows):
    """The first ``rows`` rows of the multipliers that the block from
    ``first`` reads from its one generator."""
    rng = substream(seed, STREAM_MULTIPLIER, purpose, first)
    if mult == "rademacher":
        return 2.0 * rng.integers(0, 2, size=(rows, count), dtype=np.int8) - 1.0
    return rng.uniform(-HALF, HALF, size=(rows, count))


class TestBlockMultipliers:
    @pytest.mark.parametrize("mult", ["rademacher", "uniform_sym"])
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, purpose=st.integers(0, 10), first=st.integers(0, 2**40),
           rows=st.integers(1, 300), count=st.sampled_from(COUNTS))
    def test_rows_are_the_block_generators_rows(self, mult, seed, purpose, first, rows,
                                                count):
        out = batch_multipliers(MultiplierSpec(mult), count, seed, purpose,
                                first, first + rows)
        assert np.array_equal(out, block_rows(mult, count, seed, purpose, first, rows))

    @pytest.mark.parametrize("mult", ["rademacher", "uniform_sym"])
    def test_a_short_block_is_a_prefix_of_the_full_one(self, mult):
        # A run's last block holds the first rows of the block at full length.
        spec = MultiplierSpec(mult)
        full = batch_multipliers(spec, 5, 7, 2, 2040, 2040 + 204)
        assert np.array_equal(batch_multipliers(spec, 5, 7, 2, 2040, 2051), full[:11])

    @pytest.mark.parametrize("mult", ["rademacher", "uniform_sym"])
    def test_each_block_is_keyed_by_its_first_replication(self, mult):
        # Replication 2048 reads row 0 of its own block's generator, not
        # row 8 of the generator of a block from 2040.
        spec = MultiplierSpec(mult)
        whole = batch_multipliers(spec, 5, 7, 2, 2040, 2060)
        block = batch_multipliers(spec, 5, 7, 2, 2048, 2060)
        assert np.array_equal(block, block_rows(mult, 5, 7, 2, 2048, 12))
        assert not np.array_equal(whole[8:], block)

    @pytest.mark.parametrize("mult", ["rademacher", "uniform_sym"])
    @pytest.mark.parametrize("start", [0, 2050])
    def test_empty_batch(self, mult, start):
        out = batch_multipliers(MultiplierSpec(mult), 3, 1, 0, start, start)
        assert out.shape == (0, 3)

    def test_a_pass_keys_no_single_substream(self, monkeypatch):
        # A pass keys its multiplier blocks with one substream_keys call, as
        # it keys its panels, so it never makes the generator of a single
        # substream, which would cost one keying per block.
        calls = []
        original = seeding.substream

        def counting(*path):
            calls.append(path)
            return original(*path)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "blocksym"
                    and getattr(module, "substream", None) is original):
                monkeypatch.setattr(module, "substream", counting)
        monkeypatch.setattr(processes, "_BLOCK_BYTES", 7 * 8 * 3 * 8)
        spec = DgpSpec("var1", n=8, p=3, phi=0.5)
        stats = stream_statistics(spec, 50, 1, PURPOSE_MID, make_blocks(8, 2),
                                  MultiplierSpec("rademacher"))
        assert seeding.substream is counting and stats.mult_max.shape == (50,)
        assert calls == []


class TestRawBitDraws:
    @pytest.mark.parametrize("n, p", [(1, 1), (7, 1), (4, 2), (3, 3)])
    @pytest.mark.parametrize("seed", [0, -7, 2**63 + 12345])
    def test_sign_block_reads_its_first_substream(self, n, p, seed):
        # The first four replications of a block of six: numpy's int8
        # integers on {0, 1} over the (n, 6, p) block, time-major.
        spec = DgpSpec("bounded_rademacher", n=n, p=p, scale=0.5)
        panels = filled(spec, seed, STREAM_PANEL, 3, 0, 4, full=6)
        bits = substream(seed, STREAM_PANEL, 3, 0).integers(0, 2, size=(n, 6, p),
                                                             dtype=np.int8)
        expected = 0.5 * (2.0 * bits - 1.0)
        assert np.array_equal(panels, expected[:, :4].transpose(1, 0, 2))

    def test_rademacher_innovations_read_the_block_substream(self):
        # One lag: the block's innovations are (n + 1, 3, p), time-major.
        spec = DgpSpec("linear_process", n=5, p=2, coeffs=(1.0, -0.5),
                       innovation="rademacher")
        panels = filled(spec, 8, STREAM_PANEL, 1, 0, 3)
        bits = substream(8, STREAM_PANEL, 1, 0).integers(0, 2, size=(6, 3, 2),
                                                          dtype=np.int8)
        e = (2.0 * bits - 1.0).transpose(1, 0, 2)
        assert np.array_equal(panels, e[:, 1:] - 0.5 * e[:, :-1])

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
