"""The LLC slice hash: determinism, uniformity, restriction."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cache import SliceHash, slice_hash as slice_hash_module
from repro.cache.slice_hash import RandomizedIndexer, _parity, _splitmix64


class TestSliceHash:
    def test_deterministic(self):
        hash_fn = SliceHash(16)
        assert hash_fn.slice_of(0xABC123) == hash_fn.slice_of(0xABC123)

    def test_output_in_range(self):
        hash_fn = SliceHash(16)
        for line in range(0, 100_000, 997):
            assert 0 <= hash_fn.slice_of(line) < 16

    def test_roughly_uniform_distribution(self):
        hash_fn = SliceHash(16)
        lines = np.arange(16_000, dtype=np.uint64)
        slices = hash_fn.slice_of_array(lines)
        counts = np.bincount(slices, minlength=16)
        # Each slice should get ~1000 lines; allow generous slack.
        assert counts.min() > 700
        assert counts.max() < 1300

    def test_vectorised_matches_scalar(self):
        hash_fn = SliceHash(16)
        lines = np.arange(500, 900, dtype=np.uint64)
        vector = hash_fn.slice_of_array(lines)
        scalar = [hash_fn.slice_of(int(line)) for line in lines]
        assert list(vector) == scalar

    def test_adjacent_lines_spread(self):
        # Consecutive cache lines should not all land on one slice.
        hash_fn = SliceHash(16)
        slices = {hash_fn.slice_of(line) for line in range(64)}
        assert len(slices) >= 8

    def test_non_power_of_two_slice_count(self):
        hash_fn = SliceHash(12)
        lines = np.arange(12_000, dtype=np.uint64)
        counts = np.bincount(hash_fn.slice_of_array(lines), minlength=12)
        assert counts.min() > 600

    def test_zero_slices_rejected(self):
        with pytest.raises(ValueError):
            SliceHash(0)


class TestRestriction:
    def test_restricted_hash_only_emits_allowed(self):
        full = SliceHash(16)
        restricted = full.restricted((0, 2, 4, 6, 8, 10, 12, 14))
        lines = np.arange(4_000, dtype=np.uint64)
        slices = set(restricted.slice_of_array(lines))
        assert slices <= {0, 2, 4, 6, 8, 10, 12, 14}

    def test_restriction_still_uniform(self):
        restricted = SliceHash(16).restricted(tuple(range(0, 16, 2)))
        lines = np.arange(8_000, dtype=np.uint64)
        slices = restricted.slice_of_array(lines)
        counts = np.bincount(slices, minlength=16)
        assert all(counts[odd] == 0 for odd in range(1, 16, 2))
        assert counts[::2].min() > 700

    def test_out_of_range_allowed_rejected(self):
        with pytest.raises(ValueError):
            SliceHash(16, allowed_slices=(0, 16))

    def test_empty_allowed_rejected(self):
        with pytest.raises(ValueError):
            SliceHash(16, allowed_slices=())

    def test_empty_restriction_rejected(self):
        with pytest.raises(ValueError):
            SliceHash(16).restricted(())

    def test_restriction_preserves_num_slices(self):
        restricted = SliceHash(16).restricted((1, 3))
        assert restricted.num_slices == 16
        assert restricted.allowed_slices == (1, 3)


def fold_parity_64(value: int) -> int:
    """The 64-bit XOR-fold parity that ``_parity`` replaced."""
    for shift in (32, 16, 8, 4, 2, 1):
        value ^= value >> shift
    return value & 1


words = st.integers(min_value=0, max_value=2**64 - 1)


class TestParityAndPaths:
    @given(words)
    def test_parity_matches_64_bit_fold(self, value):
        assert _parity(value) == fold_parity_64(value)

    @given(st.lists(words, min_size=1, max_size=50),
           st.sets(st.integers(0, 15), min_size=1))
    def test_scalar_matches_vector(self, lines, allowed):
        for hash_fn in (SliceHash(16),
                        SliceHash(16).restricted(tuple(sorted(allowed)))):
            vector = hash_fn.slice_of_array(np.array(lines,
                                                     dtype=np.uint64))
            assert list(vector) == [hash_fn.slice_of(l) for l in lines]

    @pytest.mark.parametrize("mask", [2**64, 2**64 + 1, 1 << 70, -1])
    def test_mask_wider_than_64_bits_rejected(self, mask):
        with pytest.raises(ValueError):
            SliceHash(16, masks=(0x1B5F575440, mask))

    def test_widest_64_bit_mask_accepted(self):
        hash_fn = SliceHash(16, masks=(2**64 - 1,))
        lines = np.arange(1000, dtype=np.uint64)
        assert list(hash_fn.slice_of_array(lines)) == [
            hash_fn.slice_of(int(line)) for line in lines
        ]


def query_twice(memoized, lines, bound):
    """Ask ``memoized`` about each line twice, watching its memo.

    Returns the answers and how often the memo shrank (a wholesale
    clear); the memo must never hold more than ``bound`` entries.
    """
    answers, clears, size = [], 0, 0
    for line in lines:
        for _ in range(2):
            answers.append(memoized(line))
            new_size = len(memoized.__self__._memo)
            assert new_size <= bound
            clears += new_size < size
            size = new_size
    return answers, clears


@pytest.fixture(scope="class", params=[None, 3],
                ids=["default-bound", "bound-3"])
def memo_bound(request):
    """The memo bound in force: the module's own, or a tiny one that
    forces clears.  Class-scoped, as hypothesis reruns the test body;
    every example builds fresh hash objects."""
    if request.param is None:
        yield slice_hash_module._MEMO_BOUND
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slice_hash_module, "_MEMO_BOUND", request.param)
        yield request.param


class TestMemo:
    """The per-line memos answer exactly what the formulas give."""

    @given(lines=st.lists(words, min_size=1, max_size=40),
           allowed=st.sets(st.integers(0, 15), min_size=1))
    def test_slice_of_matches_vector_path(self, memo_bound, lines,
                                          allowed):
        for hash_fn in (SliceHash(16),
                        SliceHash(16).restricted(tuple(sorted(allowed)))):
            expected = hash_fn.slice_of_array(
                np.array(lines, dtype=np.uint64))
            answers, clears = query_twice(hash_fn.slice_of, lines,
                                          memo_bound)
            assert answers == [int(s) for s in expected for _ in (0, 1)]
            if len(set(lines)) > memo_bound:
                assert clears > 0

    @given(lines=st.lists(words, min_size=1, max_size=40), key=words,
           num_sets=st.integers(1, 4096))
    def test_randomized_index_matches_formula(self, memo_bound, lines,
                                              key, num_sets):
        indexer = RandomizedIndexer(num_sets, key)
        answers, clears = query_twice(indexer.index, lines, memo_bound)
        assert answers == [_splitmix64(line ^ key) % num_sets
                           for line in lines for _ in (0, 1)]
        if len(set(lines)) > memo_bound:
            assert clears > 0
