"""Cache hierarchy semantics: victim LLC, directory, clflush, TSX."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cache import CacheHierarchy, Level, slice_hash as slice_hash_module
from repro.cache.hierarchy import CacheStats
from repro.cache.slice_hash import RandomizedIndexer, _splitmix64
from repro.channels.spp import SppChannel
from repro.config import (
    CacheConfig,
    SocketConfig,
    SOCKET0_ACTIVE_TILES,
    default_platform_config,
)
from repro.errors import ChannelError
from repro.platform import SecurityConfig, System


@pytest.fixture
def hierarchy() -> CacheHierarchy:
    return CacheHierarchy(
        SocketConfig(socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES)
    )


def small_hierarchy() -> CacheHierarchy:
    """Tiny caches for eviction-path tests."""
    config = SocketConfig(
        socket_id=0,
        core_tiles=SOCKET0_ACTIVE_TILES,
        l1_config=CacheConfig("L1", 2 * 2 * 64, 2),
        l2_config=CacheConfig("L2", 4 * 4 * 64, 4, inclusive=True),
        llc_slice_config=CacheConfig("LLC", 4 * 2 * 64, 2),
    )
    return CacheHierarchy(config)


def allocated_sets(hierarchy: CacheHierarchy) -> int:
    """Cache and directory sets that exist (built on first fill)."""
    caches = (*hierarchy._l1, *hierarchy._l2, *hierarchy._llc)
    return (sum(len(cache._sets) for cache in caches)
            + sum(len(d._sets) for d in hierarchy._directories))


class TestLoadPath:
    def test_first_access_is_dram(self, hierarchy):
        outcome = hierarchy.load(0, 0x10000)
        assert outcome.level is Level.DRAM
        assert outcome.slice_id is not None

    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.load(0, 0x10000)
        assert hierarchy.load(0, 0x10000).level is Level.L1

    def test_l2_hit_after_l1_displacement(self, hierarchy):
        base = 0x10000
        hierarchy.load(0, base)
        # Displace from L1 (8 ways, 64 sets -> same-set stride 4096).
        for way in range(1, 9):
            hierarchy.load(0, base + way * 64 * 64)
        assert hierarchy.load(0, base).level is Level.L2

    def test_remote_cache_hit_via_directory(self, hierarchy):
        hierarchy.load(3, 0x20000)       # core 3 caches the line
        outcome = hierarchy.load(7, 0x20000)
        assert outcome.level is Level.REMOTE_CACHE

    def test_slice_selection_is_stable(self, hierarchy):
        a = hierarchy.load(0, 0x30000).slice_id
        hierarchy.flush_all()
        b = hierarchy.load(5, 0x30000).slice_id
        assert a == b

    def test_reached_uncore_flag(self, hierarchy):
        first = hierarchy.load(0, 0x40000)
        second = hierarchy.load(0, 0x40000)
        assert first.reached_uncore
        assert not second.reached_uncore


class TestVictimLLC:
    def test_l2_victim_enters_llc(self):
        hierarchy = small_hierarchy()
        # Fill one L2 set (4 sets, 4 ways): same-set stride 4*64.
        lines = [i * 4 * 64 for i in range(5)]
        for address in lines:
            hierarchy.load(0, address)
        # lines[0] was evicted from L2 into its LLC home slice.
        outcome = hierarchy.load(0, lines[0])
        assert outcome.level is Level.LLC

    def test_llc_hit_moves_line_back_to_private(self):
        hierarchy = small_hierarchy()
        lines = [i * 4 * 64 for i in range(5)]
        for address in lines:
            hierarchy.load(0, address)
        hierarchy.load(0, lines[0])           # LLC hit, promotes
        slice_id = hierarchy.slice_of(lines[0])
        assert not hierarchy.llc_slice(slice_id).contains(lines[0] >> 6)
        assert hierarchy.load(0, lines[0]).level is Level.L1

    def test_dram_fill_bypasses_llc(self):
        hierarchy = small_hierarchy()
        hierarchy.load(0, 0x5000)
        slice_id = hierarchy.slice_of(0x5000)
        assert not hierarchy.llc_slice(slice_id).contains(0x5000 >> 6)

    def test_l1_back_invalidated_on_l2_eviction(self):
        hierarchy = small_hierarchy()
        lines = [i * 4 * 64 for i in range(5)]
        for address in lines:
            hierarchy.load(0, address)
        # Inclusion: the evicted line must not linger in L1.
        assert not hierarchy.l1(0).contains(lines[0] >> 6)


class TestClflush:
    def test_flush_forces_dram_reload(self, hierarchy):
        hierarchy.load(0, 0x60000)
        hierarchy.clflush(0x60000)
        assert hierarchy.load(0, 0x60000).level is Level.DRAM

    def test_flush_reaches_remote_private_caches(self, hierarchy):
        hierarchy.load(3, 0x70000)
        hierarchy.clflush(0x70000)
        assert hierarchy.load(7, 0x70000).level is Level.DRAM

    def test_flush_reports_cached_state(self, hierarchy):
        hierarchy.load(0, 0x80000)
        assert hierarchy.clflush(0x80000) is True
        assert hierarchy.clflush(0x80000) is False


class TestTransactions:
    def test_abort_on_remote_eviction_pressure(self):
        hierarchy = small_hierarchy()
        # Place a line in core 0's caches, track it in a transaction.
        hierarchy.load(0, 0x1000)
        hierarchy.begin_transaction(0, frozenset({0x1000 >> 6}))
        # clflush invalidates the tracked line -> abort.
        hierarchy.clflush(0x1000)
        assert hierarchy.end_transaction(0) is True

    def test_no_abort_without_conflict(self, hierarchy):
        hierarchy.load(0, 0x2000)
        hierarchy.begin_transaction(0, frozenset({0x2000 >> 6}))
        hierarchy.load(1, 0x90000)  # unrelated
        assert hierarchy.end_transaction(0) is False

    def test_nested_transaction_rejected(self, hierarchy):
        hierarchy.begin_transaction(0, frozenset())
        with pytest.raises(ChannelError):
            hierarchy.begin_transaction(0, frozenset())
        hierarchy.end_transaction(0)

    def test_end_without_begin_rejected(self, hierarchy):
        with pytest.raises(ChannelError):
            hierarchy.end_transaction(0)

    def test_query_without_begin_rejected(self, hierarchy):
        with pytest.raises(ChannelError):
            hierarchy.transaction_aborted(0)


class TestDomainHashOverride:
    def test_restricted_hash_confines_slices(self, hierarchy):
        restricted = hierarchy.slice_hash.restricted((0, 2, 4))
        for address in range(0, 64 * 4096, 4096):
            outcome = hierarchy.load(0, address, slice_hash=restricted)
            if outcome.slice_id is not None:
                assert outcome.slice_id in (0, 2, 4)


class TestFlushAll:
    def test_flush_all_resets_everything(self, hierarchy):
        hierarchy.load(0, 0x1000)
        hierarchy.load(1, 0x2000)
        hierarchy.flush_all()
        assert hierarchy.load(0, 0x1000).level is Level.DRAM
        assert hierarchy.directory_back_invalidations == 0


class TestLazySets:
    def test_fresh_hierarchy_holds_no_sets(self, hierarchy):
        assert allocated_sets(hierarchy) == 0

    def test_fresh_system_holds_no_sets(self):
        system = System(seed=1)
        assert len(system.sockets) == 2
        assert all(allocated_sets(socket.hierarchy) == 0
                   for socket in system.sockets)

    def test_reads_and_flushes_allocate_nothing(self, hierarchy):
        for address in range(0, 64 * 4096, 4096):
            hierarchy.clflush(address)
        hierarchy.flush_all()
        assert hierarchy.directory_back_invalidations == 0
        assert allocated_sets(hierarchy) == 0

    def test_one_dram_load_builds_one_set_per_filled_structure(
            self, hierarchy):
        hierarchy.load(0, 0x10000)
        # L1 + L2 of core 0 and the home slice's directory; a DRAM fill
        # bypasses the LLC.
        assert allocated_sets(hierarchy) == 3
        assert all(len(cache._sets) == 0 for cache in hierarchy._llc)


class FormulaSliceHash:
    """A domain's slice hash straight from its formula, with no memo."""

    def __init__(self, hash_fn) -> None:
        self.hash_fn = hash_fn

    def slice_of(self, line: int) -> int:
        allowed = self.hash_fn.allowed_slices
        mixed = _splitmix64(self.hash_fn.raw_hash(line) ^ (line >> 4))
        return allowed[mixed % len(allowed)]


def formula_index(indexer, num_sets: int):
    """The set-index formula behind an indexer, with no memo."""
    if isinstance(indexer, RandomizedIndexer):
        return lambda line: _splitmix64(line ^ indexer.key) % num_sets
    return lambda line: line % num_sets


SECURITY = {
    "standard": SecurityConfig(),
    "random-llc": SecurityConfig(randomize_llc=True),
    "partitioned": SecurityConfig(fine_partition=True, num_domains=2),
}

#: SPP-style walk sizes (lines): the receiver overflows its 1024-line
#: L2, the sender's flood overflows the LLC.
WALK_LINES = 1200
FLOOD_LINES = 2400


def walk_config():
    """SPP's scaled geometry with 16-set, 8-way LLC slices (2048 lines;
    tree PLRU needs a power-of-two way count)."""
    config = SppChannel.platform_transform(default_platform_config())
    return replace(config, sockets=tuple(
        replace(socket, llc_slice_config=replace(
            socket.llc_slice_config, size_bytes=16 * 8 * 64, ways=8))
        for socket in config.sockets))


def spp_twin(security: str, policy: str):
    """A system on :func:`walk_config` with the given LLC policy, plus
    the receiver and the sender (in the other domain when
    partitioned)."""
    system = System(walk_config(), security=SECURITY[security], seed=5)
    for socket in system.sockets:
        socket.hierarchy = CacheHierarchy(
            socket.config,
            llc_indexer_factory=socket.hierarchy._llc_indexer_factory,
            llc_policy=policy,
        )
    receiver = system.create_actor("receiver", 0, 8, domain=0)
    sender = system.create_actor(
        "sender", 0, 0, domain=1 if security == "partitioned" else 0)
    walk = tuple(receiver.allocate(WALK_LINES * 64).addresses(64))
    flood = tuple(sender.allocate(FLOOD_LINES * 64).addresses(64))
    return system, receiver, sender, walk, flood


def reference_bulk_load(actor, virtuals) -> int:
    """``Actor.bulk_load`` as a loop of ``load`` on the formula hash."""
    hierarchy = actor.socket.hierarchy
    formula = FormulaSliceHash(actor.slice_hash)
    misses = 0
    for virtual in virtuals:
        outcome = hierarchy.load(actor.core_id,
                                 actor.space.translate(virtual),
                                 slice_hash=formula)
        misses += outcome.level is Level.DRAM
    return misses


def hierarchy_state(hierarchy, homes):
    """Everything a walk leaves behind: the lines of every touched
    L1/L2/LLC set, directory holders of the walked lines, and stats."""
    caches = (*hierarchy._l1, *hierarchy._l2, *hierarchy._llc)
    return {
        "sets": [{index: cache.lines_in_set(index)
                  for index in sorted(cache._sets)} for cache in caches],
        "cache_stats": [cache.stats for cache in caches],
        "stats": {name: getattr(hierarchy.stats, name)
                  for name in CacheStats.__slots__},
        "holders": {line: hierarchy._directories[home].holders(line)
                    for line, home in homes.items()},
    }


def check_placement(hierarchy, homes) -> None:
    """Occupancy flags mirror the lines, and every line sits in the set
    its indexing formula names and, in the LLC and the directory, in
    its own home slice."""
    private = [(None, cache) for cache in (*hierarchy._l1, *hierarchy._l2)]
    for slice_id, cache in private + list(enumerate(hierarchy._llc)):
        index = formula_index(cache._indexer, cache.num_sets)
        for set_index, cache_set in cache._sets.items():
            assert cache_set.occupied == [
                line is not None for line in cache_set.lines]
            for line in cache_set.lines:
                if line is not None:
                    assert index(line) == set_index
                    assert slice_id is None or homes[line] == slice_id
    for slice_id, directory in enumerate(hierarchy._directories):
        indexer = getattr(directory._index_fn, "__self__", None)
        index = formula_index(indexer, directory.num_sets)
        for set_index, entries in directory._sets.items():
            for line in entries:
                assert (homes[line], index(line)) == (slice_id, set_index)


def run_spp_sequence(security, policy, walker, transaction=False):
    """Warm, calibrate, flood and re-walk (SPP's setup and one "1"
    bit) through ``walker``; returns the miss counts, the final
    hierarchy, every walked line's home slice and the abort flag."""
    system, receiver, sender, walk, flood = spp_twin(security, policy)
    hierarchy = receiver.socket.hierarchy
    misses = [walker(receiver, walk), walker(receiver, walk)]
    if transaction:
        read_set = frozenset(receiver.space.translate(v) >> 6
                             for v in walk[:64])
        hierarchy.begin_transaction(receiver.core_id, read_set)
    misses += [walker(receiver, walk), walker(sender, flood),
               walker(receiver, walk)]
    homes = {}
    for actor, virtuals in ((receiver, walk), (sender, flood)):
        formula = FormulaSliceHash(actor.slice_hash)
        for virtual in virtuals:
            line = actor.space.translate(virtual) >> 6
            homes[line] = formula.slice_of(line)
    aborted = (hierarchy.transaction_aborted(receiver.core_id)
               if transaction else None)
    return misses, hierarchy, homes, aborted


def bulk(actor, virtuals) -> int:
    return actor.bulk_load(virtuals, advance_time=False)


class TestBulkLoad:
    """``Actor.bulk_load`` against a loop of ``load`` on a twin system."""

    def assert_twins_agree(self, security, policy, transaction=False):
        misses, hierarchy, homes, aborted = run_spp_sequence(
            security, policy, bulk, transaction)
        ref_misses, ref_hierarchy, ref_homes, ref_aborted = \
            run_spp_sequence(security, policy, reference_bulk_load,
                             transaction)
        assert homes == ref_homes
        assert misses == ref_misses
        assert sum(llc.stats.evictions for llc in hierarchy._llc) > 0
        assert hierarchy_state(hierarchy, homes) == hierarchy_state(
            ref_hierarchy, homes)
        check_placement(hierarchy, homes)
        check_placement(ref_hierarchy, homes)
        assert aborted == ref_aborted
        return aborted

    @pytest.mark.parametrize("policy", ["lru", "plru", "random"])
    @pytest.mark.parametrize("security", sorted(SECURITY))
    def test_matches_load_loop(self, security, policy):
        self.assert_twins_agree(security, policy)

    def test_matches_with_transaction_open(self):
        assert self.assert_twins_agree("standard", "lru",
                                       transaction=True) is True

    def test_matches_across_memo_clears(self, monkeypatch):
        monkeypatch.setattr(slice_hash_module, "_MEMO_BOUND", 3)
        self.assert_twins_agree("random-llc", "lru")
        self.assert_twins_agree("partitioned", "plru")

    def test_numpy_addresses_match_tuple(self):
        results = []
        for as_array in (False, True):
            system, receiver, _sender, walk, _flood = spp_twin(
                "standard", "lru")
            virtuals = np.array(walk) if as_array else walk
            start = system.engine.now
            misses = [receiver.bulk_load(virtuals) for _ in range(3)]
            results.append((misses, system.engine.now - start))
        assert results[0] == results[1]
        assert results[0][1] > 0
