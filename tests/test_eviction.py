"""Eviction-list construction (Section 3.1's EV lists)."""

import tracemalloc

import numpy as np
import pytest

from repro.cache import (CacheHierarchy, EvictionListBuilder, EvictionSet,
                         Level)
from repro.config import SOCKET0_ACTIVE_TILES, CacheConfig, SocketConfig
from repro.errors import MemoryError_
from repro.mem import AddressSpace, PhysicalMemory


@pytest.fixture
def setup():
    config = SocketConfig(socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES)
    hierarchy = CacheHierarchy(config)
    memory = PhysicalMemory(8 << 30, 4096)
    space = AddressSpace("attacker", memory)
    return hierarchy, EvictionListBuilder(space, hierarchy), space


class TestL2Lists:
    def test_list_has_requested_size(self, setup):
        _, builder, _ = setup
        ev = builder.build_l2_list(slice_id=3, l2_set=17, count=20)
        assert len(ev) == 20

    def test_all_lines_share_l2_set(self, setup):
        _, builder, _ = setup
        ev = builder.build_l2_list(slice_id=3, l2_set=17, count=20)
        assert all(line % 1024 == 17 for line in ev.lines)

    def test_all_lines_share_slice(self, setup):
        hierarchy, builder, _ = setup
        ev = builder.build_l2_list(slice_id=3, l2_set=17, count=20)
        assert all(
            hierarchy.slice_hash.slice_of(line) == 3 for line in ev.lines
        )

    def test_addresses_translate_to_lines(self, setup):
        _, builder, space = setup
        ev = builder.build_l2_list(slice_id=1, l2_set=5, count=18)
        for virtual, line in zip(ev.virtual_addresses, ev.lines):
            assert space.translate(virtual) >> 6 == line

    def test_lines_are_distinct(self, setup):
        _, builder, _ = setup
        ev = builder.build_l2_list(slice_id=0, l2_set=0, count=20)
        assert len(set(ev.lines)) == 20


class TestListing1Property:
    def test_cycling_list_misses_l2_hits_llc(self, setup):
        """The core Section 3.1 property: with W_L2 <= m <= W_L2+W_LLC,
        cycling the list in fixed order always misses the L2 and hits
        the LLC slice once warm."""
        hierarchy, builder, space = setup
        ev = builder.build_measurement_list(slice_id=2, count=20)
        # Warm: two passes.
        for _ in range(2):
            for virtual in ev.virtual_addresses:
                hierarchy.load(0, space.translate(virtual))
        # Steady state: every access an LLC hit.
        levels = [
            hierarchy.load(0, space.translate(virtual)).level
            for virtual in ev.virtual_addresses
        ]
        assert all(level is Level.LLC for level in levels)

    def test_oversized_list_misses_llc_too(self, setup):
        """An L2-congruent list spans two LLC sets (the set index has
        one more bit than the L2's), so overflow needs
        m > W_L2 + 2 * W_LLC = 38 lines: misses appear."""
        hierarchy, builder, space = setup
        ev = builder.build_l2_list(slice_id=2, l2_set=9, count=45)
        for _ in range(2):
            for virtual in ev.virtual_addresses:
                hierarchy.load(0, space.translate(virtual))
        levels = [
            hierarchy.load(0, space.translate(virtual)).level
            for virtual in ev.virtual_addresses
        ]
        assert any(level is Level.DRAM for level in levels)

    def test_undersized_list_hits_l2(self, setup):
        """m < W_L2 fits in the L2: all hits stay private."""
        hierarchy, builder, space = setup
        ev = builder.build_l2_list(slice_id=2, l2_set=11, count=10)
        for _ in range(2):
            for virtual in ev.virtual_addresses:
                hierarchy.load(0, space.translate(virtual))
        levels = [
            hierarchy.load(0, space.translate(virtual)).level
            for virtual in ev.virtual_addresses
        ]
        assert all(level in (Level.L1, Level.L2) for level in levels)


class TestLlcSetLists:
    def test_llc_congruence(self, setup):
        _, builder, _ = setup
        ev = builder.build_llc_set_list(slice_id=0, llc_set=40, count=24)
        assert all(line % 2048 == 40 for line in ev.lines)

    def test_llc_congruent_implies_l2_congruent(self, setup):
        _, builder, _ = setup
        ev = builder.build_llc_set_list(slice_id=0, llc_set=40, count=12)
        assert len({line % 1024 for line in ev.lines}) == 1


class TestGroupsAndWorkingSets:
    def test_l2_set_group_ignores_slice(self, setup):
        hierarchy, builder, _ = setup
        ev = builder.build_l2_set_group(l2_set=7, count=40)
        assert all(line % 1024 == 7 for line in ev.lines)
        slices = {hierarchy.slice_hash.slice_of(l) for l in ev.lines}
        assert len(slices) > 4
        assert ev.slice_id == -1

    def test_slice_working_set(self, setup):
        hierarchy, builder, _ = setup
        ev = builder.build_slice_working_set(slice_id=5, count=100)
        assert all(
            hierarchy.slice_hash.slice_of(l) == 5 for l in ev.lines
        )


class TestPartitionAndBudget:
    def test_partitioned_builder_rejects_foreign_slice(self, setup):
        hierarchy, _, space = setup
        restricted = hierarchy.slice_hash.restricted((1, 3, 5))
        builder = EvictionListBuilder(space, hierarchy,
                                      slice_hash=restricted)
        with pytest.raises(MemoryError_):
            builder.build_measurement_list(slice_id=0)

    def test_search_budget_enforced(self, setup):
        hierarchy, _, space = setup
        builder = EvictionListBuilder(space, hierarchy,
                                      max_search_bytes=1 << 24)
        # An impossible request (same L2 set AND slice needs far more
        # than 16 MB of candidates for 5000 matches).
        with pytest.raises(MemoryError_):
            builder.build_l2_list(slice_id=0, l2_set=0, count=5000)


class ClassifyAllBuilder:
    """The builder before the set filter: it slice-hashes every line of
    every chunk, keeps all three per-line arrays, and masks them."""

    def __init__(self, space, hierarchy, *, slice_hash=None,
                 max_search_bytes=1 << 31):
        self.space = space
        self.hierarchy = hierarchy
        self.slice_hash = slice_hash or hierarchy.slice_hash
        self.max_search_bytes = max_search_bytes
        self._searched_bytes = 0
        self._virtual = np.empty(0, dtype=np.int64)
        self._lines = np.empty(0, dtype=np.uint64)
        self._slices = np.empty(0, dtype=np.int64)

    def _grow(self):
        page = self.space.page_bytes
        chunk_bytes = EvictionListBuilder._CHUNK_PAGES * page
        if self._searched_bytes + chunk_bytes > self.max_search_bytes:
            raise MemoryError_("budget")
        allocation = self.space.allocate(chunk_bytes)
        self._searched_bytes += chunk_bytes
        virtual_pages = range(allocation.virtual_base,
                              allocation.virtual_end, page)
        physical_pages = np.array(
            [self.space.translate(v) for v in virtual_pages], dtype=np.int64)
        offsets = np.arange(page // 64, dtype=np.int64)
        new_virtual = (np.array(virtual_pages, dtype=np.int64)[:, None]
                       + offsets * 64).ravel()
        new_lines = ((physical_pages >> 6)[:, None]
                     + offsets).ravel().astype(np.uint64)
        self._virtual = np.concatenate([self._virtual, new_virtual])
        self._lines = np.concatenate([self._lines, new_lines])
        self._slices = np.concatenate(
            [self._slices, self.slice_hash.slice_of_array(new_lines)])

    def _pick(self, count, slice_id, num_sets=1, set_index=0, **labels):
        if slice_id is not None and \
                slice_id not in self.slice_hash.allowed_slices:
            raise MemoryError_("foreign slice")
        while True:
            mask = (self._lines % np.uint64(num_sets)).astype(
                np.int64) == set_index
            if slice_id is not None:
                mask &= self._slices == slice_id
            chosen = np.flatnonzero(mask)
            if len(chosen) >= count:
                chosen = chosen[:count]
                break
            self._grow()
        return EvictionSet(
            virtual_addresses=tuple(int(v) for v in self._virtual[chosen]),
            lines=tuple(int(l) for l in self._lines[chosen]),
            slice_id=-1 if slice_id is None else slice_id, **labels)

    def build_l2_list(self, slice_id, l2_set, count):
        sets = self.hierarchy.config.l2_config.num_sets
        return self._pick(count, slice_id, sets, l2_set, l2_set=l2_set)

    def build_llc_set_list(self, slice_id, llc_set, count):
        sets = self.hierarchy.config.llc_slice_config.num_sets
        return self._pick(count, slice_id, sets, llc_set, llc_set=llc_set)

    def build_slice_working_set(self, slice_id, count):
        return self._pick(count, slice_id)

    def build_l2_set_group(self, l2_set, count):
        sets = self.hierarchy.config.l2_config.num_sets
        return self._pick(count, None, sets, l2_set, l2_set=l2_set)

    def build_measurement_list(self, slice_id, count=20, l2_set=0):
        return self.build_l2_list(slice_id, l2_set, count)


#: Socket geometries: the Table 1 one, and one whose L2 (32 sets) and LLC
#: slice (16 sets) have fewer sets than a page has lines, so several
#: offsets of every page match a set.
GEOMETRIES = {
    "table1": {},
    "small_sets": {
        "l2_config": CacheConfig("L2", 32 * 16 * 64, 16),
        "llc_slice_config": CacheConfig("LLC-slice", 16 * 11 * 64, 11),
    },
}


def twin_builders(geometry, allowed, **kwargs):
    """The builder and its classify-everything reference, each over its
    own fresh (identically allocating) address space."""
    config = SocketConfig(socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES,
                          **GEOMETRIES[geometry])
    hierarchy = CacheHierarchy(config)
    slice_hash = (None if allowed is None
                  else hierarchy.slice_hash.restricted(allowed))
    return tuple(
        cls(AddressSpace("attacker", PhysicalMemory(8 << 30, 4096)),
            hierarchy, slice_hash=slice_hash, **kwargs)
        for cls in (EvictionListBuilder, ClassifyAllBuilder))


def interleaved_builds(l2_sets, llc_sets):
    """Builds of every kind on one builder: later ones reuse the chunks
    earlier ones allocated, and some grow past them."""
    return [
        ("build_l2_list", dict(slice_id=3, l2_set=17 % l2_sets, count=20)),
        ("build_slice_working_set", dict(slice_id=5, count=300)),
        ("build_llc_set_list",
         dict(slice_id=5, llc_set=40 % llc_sets, count=27)),
        ("build_measurement_list", dict(slice_id=7)),
        ("build_l2_set_group", dict(l2_set=l2_sets - 1, count=40)),
        ("build_l2_list", dict(slice_id=1, l2_set=0, count=45)),
        ("build_llc_set_list",
         dict(slice_id=3, llc_set=llc_sets - 1, count=11)),
        ("build_l2_set_group", dict(l2_set=5 % l2_sets, count=0)),
        ("build_measurement_list",
         dict(slice_id=3, count=27, l2_set=(l2_sets // 2) + 1)),
    ]


class TestAgainstClassifyAll:
    """Every build returns what classifying every line returned, and
    leaves the address space as it left it."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("allowed", [None, (1, 3, 5, 7)])
    def test_interleaved_builds_match(self, geometry, allowed):
        builder, reference = twin_builders(geometry, allowed)
        config = builder.hierarchy.config
        for name, kwargs in interleaved_builds(
                config.l2_config.num_sets,
                config.llc_slice_config.num_sets):
            got = getattr(builder, name)(**kwargs)
            assert got == getattr(reference, name)(**kwargs), (name, kwargs)
            assert len(got) == kwargs.get("count", 20)
            assert builder.space.allocations == reference.space.allocations

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_budget_error_at_the_same_chunk(self, geometry):
        builder, reference = twin_builders(geometry, None,
                                           max_search_bytes=3 << 24)
        for each in (builder, reference):
            each.build_l2_list(slice_id=2, l2_set=9, count=10)
            with pytest.raises(MemoryError_):
                each.build_llc_set_list(slice_id=0, llc_set=3, count=5000)
        assert len(builder.space.allocations) == 3
        assert builder.space.allocations == reference.space.allocations

    def test_candidates_count_hashed_lines(self, setup):
        _, builder, _ = setup
        builder.build_l2_set_group(l2_set=7, count=40)
        assert builder.candidate_count == 0
        builder.build_l2_list(slice_id=3, l2_set=17, count=1)
        # One chunk: 4096 pages, one in 16 in L2 set 17's frame class.
        assert builder.candidate_count == 4096 // 16


class TestArgumentValidation:
    """A bad argument fails before the search allocates anything."""

    @pytest.mark.parametrize("name, kwargs", [
        ("build_l2_list", dict(slice_id=0, l2_set=1024, count=20)),
        ("build_l2_list", dict(slice_id=0, l2_set=-1, count=20)),
        ("build_l2_list", dict(slice_id=0, l2_set=0, count=-1)),
        ("build_llc_set_list", dict(slice_id=0, llc_set=2048, count=20)),
        ("build_llc_set_list", dict(slice_id=0, llc_set=-3, count=20)),
        ("build_l2_set_group", dict(l2_set=4096, count=20)),
        ("build_slice_working_set", dict(slice_id=0, count=-5)),
        ("build_measurement_list", dict(slice_id=0, l2_set=1024)),
    ])
    def test_rejected_without_allocating(self, setup, name, kwargs):
        _, builder, space = setup
        with pytest.raises(ValueError):
            getattr(builder, name)(**kwargs)
        assert space.allocations == ()
        assert space.memory.frames_allocated(0) == 0

    def test_zero_count_is_empty(self, setup):
        _, builder, space = setup
        assert len(builder.build_l2_list(slice_id=0, l2_set=0,
                                         count=0)) == 0
        assert space.allocations == ()


class TestFootprint:
    def test_build_holds_pages_not_lines(self, setup):
        """Classifying every line held three 2 MB arrays per chunk
        (43 MB traced peak for this build); the filter holds two 32 KB
        arrays per chunk and hashes a few hundred lines."""
        _, builder, _ = setup
        tracemalloc.start()
        try:
            builder.build_llc_set_list(slice_id=3, llc_set=40, count=27)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
