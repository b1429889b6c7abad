"""The set-associative cache: hits, evictions, listeners, stats."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.cache import RandomizedIndexer, SetAssociativeCache
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.config import CacheConfig


def tiny_cache(sets=4, ways=2, **kwargs) -> SetAssociativeCache:
    config = CacheConfig("tiny", sets * ways * 64, ways)
    return SetAssociativeCache(config, **kwargs)


class TestBasicOperation:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert not cache.lookup(100)
        cache.insert(100)
        assert cache.lookup(100)

    def test_contains_has_no_side_effects(self):
        cache = tiny_cache(ways=2)
        cache.insert(0)
        cache.insert(4)  # same set (4 sets)
        cache.contains(0)  # must NOT refresh line 0
        cache.insert(8)    # evicts LRU
        assert not cache.contains(0)
        assert cache.contains(4)

    def test_insert_returns_victim(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.insert(0)
        cache.insert(1)
        victim = cache.insert(2)
        assert victim == 0

    def test_reinsert_refreshes_not_evicts(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.insert(0)
        cache.insert(1)
        assert cache.insert(0) is None
        assert cache.insert(2) == 1  # 1 became LRU

    def test_lines_map_to_expected_sets(self):
        cache = tiny_cache(sets=4)
        assert cache.set_index(0) == 0
        assert cache.set_index(5) == 1
        assert cache.set_index(7) == 3

    def test_invalidate_removes(self):
        cache = tiny_cache()
        cache.insert(9)
        assert cache.invalidate(9)
        assert not cache.contains(9)

    def test_invalidate_absent_returns_false(self):
        assert not tiny_cache().invalidate(9)

    def test_invalidated_way_reused_first(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.insert(0)
        cache.insert(1)
        cache.invalidate(0)
        cache.insert(2)  # should fill the hole, not evict 1
        assert cache.contains(1) and cache.contains(2)

    def test_flush_all_empties(self):
        cache = tiny_cache()
        for line in range(8):
            cache.insert(line)
        cache.flush_all()
        assert cache.occupancy() == 0


class TestStats:
    def test_hit_miss_counting(self):
        cache = tiny_cache()
        cache.lookup(1)
        cache.insert(1)
        cache.lookup(1)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_eviction_and_invalidation_counts(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.insert(0)
        cache.insert(1)
        cache.insert(2)
        cache.invalidate(2)
        assert cache.stats.evictions == 1
        assert cache.stats.invalidations == 1

    def test_reset(self):
        cache = tiny_cache()
        cache.insert(1)
        cache.lookup(1)
        cache.stats.reset()
        assert cache.stats.accesses == 0
        assert cache.stats.fills == 0


class TestEvictionListeners:
    def test_listener_sees_victims(self):
        cache = tiny_cache(sets=1, ways=2)
        victims = []
        cache.add_eviction_listener(victims.append)
        cache.insert(0)
        cache.insert(1)
        cache.insert(2)
        assert victims == [0]

    def test_invalidation_is_not_an_eviction(self):
        cache = tiny_cache()
        victims = []
        cache.add_eviction_listener(victims.append)
        cache.insert(0)
        cache.invalidate(0)
        assert victims == []

    def test_listener_removal(self):
        cache = tiny_cache(sets=1, ways=1)
        victims = []
        cache.add_eviction_listener(victims.append)
        cache.insert(0)
        cache.remove_eviction_listener(victims.append)
        cache.insert(1)
        assert victims == []


class TestRandomizedIndexing:
    def test_randomized_mapping_differs_from_standard(self):
        standard = tiny_cache(sets=64, ways=4)
        randomized = tiny_cache(
            sets=64, ways=4, indexer=RandomizedIndexer(64, key=0xFEED)
        )
        lines = range(0, 64 * 8, 8)
        differing = sum(
            1 for line in lines
            if standard.set_index(line) != randomized.set_index(line)
        )
        assert differing > len(list(lines)) // 2

    def test_randomized_mapping_is_keyed(self):
        a = RandomizedIndexer(64, key=1)
        b = RandomizedIndexer(64, key=2)
        assert any(a.index(l) != b.index(l) for l in range(200))

    def test_standard_congruent_lines_scatter_under_randomization(self):
        # The defense mechanism: a standard-indexing eviction list no
        # longer collides in one set.
        indexer = RandomizedIndexer(2048, key=0xABCD)
        congruent = [2048 * i + 5 for i in range(24)]
        sets = {indexer.index(line) for line in congruent}
        assert len(sets) > 16

    def test_same_line_same_set(self):
        indexer = RandomizedIndexer(64, key=3)
        assert indexer.index(12345) == indexer.index(12345)


@dataclass
class _EagerSet:
    lines: list
    policy: ReplacementPolicy


class EagerReferenceCache:
    """The pre-built-list cache model: every set exists from the start.

    Only the behaviour the lazy cache must reproduce is kept: hit/miss,
    victim choice, invalidation and a flush that keeps policy state.
    """

    def __init__(self, sets: int, ways: int, policy: str) -> None:
        self.num_sets = sets
        self.ways = ways
        self._sets = [
            _EagerSet([None] * ways, make_policy(policy, ways))
            for _ in range(sets)
        ]

    def lookup(self, line: int) -> bool:
        cache_set = self._sets[line % self.num_sets]
        if line not in cache_set.lines:
            return False
        cache_set.policy.touch(cache_set.lines.index(line))
        return True

    def insert(self, line: int) -> int | None:
        cache_set = self._sets[line % self.num_sets]
        if line in cache_set.lines:
            cache_set.policy.touch(cache_set.lines.index(line))
            return None
        way = cache_set.policy.victim(
            [slot is not None for slot in cache_set.lines]
        )
        victim = cache_set.lines[way]
        cache_set.lines[way] = line
        cache_set.policy.fill(way)
        return victim

    def invalidate(self, line: int) -> bool:
        cache_set = self._sets[line % self.num_sets]
        if line not in cache_set.lines:
            return False
        way = cache_set.lines.index(line)
        cache_set.lines[way] = None
        cache_set.policy.invalidate(way)
        return True

    def flush_all(self) -> None:
        for cache_set in self._sets:
            cache_set.lines = [None] * self.ways


class TestLazySets:
    def test_fresh_cache_holds_no_sets(self):
        assert tiny_cache(sets=64, ways=4)._sets == {}

    def test_reads_of_untouched_sets_allocate_nothing(self):
        cache = tiny_cache(sets=64, ways=4)
        for line in range(512):
            assert not cache.lookup(line)
            assert not cache.contains(line)
            assert not cache.invalidate(line)
        assert all(cache.lines_in_set(i) == [] for i in range(64))
        assert cache.occupancy() == 0
        cache.flush_all()
        assert cache._sets == {}
        assert cache.stats.misses == 512

    def test_fill_builds_only_its_own_set(self):
        cache = tiny_cache(sets=64, ways=4)
        cache.insert(5)
        cache.insert(69)  # same set as 5
        assert list(cache._sets) == [5]
        assert sorted(cache.lines_in_set(5)) == [5, 69]

    def test_bad_policy_rejected_before_any_fill(self):
        with pytest.raises(ValueError):
            tiny_cache(policy="mru")
        with pytest.raises(ValueError):
            tiny_cache(ways=3, policy="plru")

    def test_flush_keeps_touched_sets(self):
        cache = tiny_cache(sets=8, ways=2)
        for line in (1, 2, 9):
            cache.insert(line)
        cache.flush_all()
        assert sorted(cache._sets) == [1, 2]
        assert cache.occupancy() == 0

    @pytest.mark.parametrize("policy", ["lru", "plru", "random"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_eager_reference(self, policy, seed):
        sets, ways = 8, 4
        lazy = tiny_cache(sets=sets, ways=ways, policy=policy)
        eager = EagerReferenceCache(sets, ways, policy)
        rng = np.random.default_rng(seed)
        # Three lines per way: enough conflict to exercise every policy's
        # victim choice, with a few sets left cold.
        lines = rng.integers(0, sets * ways * 3, size=4000)
        ops = rng.random(size=len(lines))
        lazy_trace, eager_trace = [], []
        for step, (line, op) in enumerate(zip(lines.tolist(), ops)):
            if step in (1000, 2500):
                lazy.flush_all()
                eager.flush_all()
            if op < 0.1:
                lazy_trace.append(("inv", lazy.invalidate(line)))
                eager_trace.append(("inv", eager.invalidate(line)))
                continue
            hit = lazy.lookup(line)
            lazy_trace.append(("hit", hit))
            eager_trace.append(("hit", eager.lookup(line)))
            if not hit:
                lazy_trace.append(("victim", lazy.insert(line)))
                eager_trace.append(("victim", eager.insert(line)))
        assert lazy_trace == eager_trace
        assert sum(1 for kind, v in lazy_trace
                   if kind == "victim" and v is not None) > 100
