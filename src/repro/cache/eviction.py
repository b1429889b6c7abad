"""Eviction-list construction (Section 3.1 / Listings 1-3).

An eviction list ``EV_s(i)`` is a group of addresses all mapping to L2
set ``i`` and LLC slice ``s``.  The paper's unprivileged attacker builds
them from ordinary allocations by classifying candidate addresses — here
we classify with the same physical information the simulated platform
exposes (the attacker's timing-based recovery of this mapping is a
solved problem the paper cites, so we do not re-derive it per run).

A set index is the line number modulo the set count, so it is fixed by
the page's frame and the line's offset in the page.  The builder picks
the matching offset of each page first and slice-hashes only those
lines: an L2 list hashes about 256 of a 16 MB chunk's 262,144 lines.

The builder also produces same-LLC-set lists for the Prime+Probe family
and occupancy-scale working sets for the SPP baseline.

Crucially, the builder assumes *standard* cache indexing.  When the
platform runs a randomized-LLC defense the produced "same set" lists
silently stop colliding in the real cache — which is exactly how that
defense breaks the set-conflict channels in Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MemoryError_
from ..mem.allocator import AddressSpace
from .hierarchy import CacheHierarchy


@dataclass(frozen=True)
class EvictionSet:
    """A list of congruent addresses (virtual view plus line numbers)."""

    virtual_addresses: tuple[int, ...]
    lines: tuple[int, ...]
    slice_id: int
    l2_set: int | None = None
    llc_set: int | None = None

    def __len__(self) -> int:
        return len(self.virtual_addresses)


class EvictionListBuilder:
    """Searches an address space for congruent addresses.

    Allocates memory in 16 MB chunks until the requested number of
    congruent addresses is found, keeping only each chunk's page bases.
    Every build walks the chunks in allocation order and each page's
    lines in offset order, so its result is the first ``count``
    congruent lines of that order.  All results are cached lines of
    *this* address space, so two actors (sender/receiver) each build
    their own lists, as in the paper.
    """

    _CHUNK_PAGES = 4096  # 16 MB of 4 KB pages per search round
    _LINE_BYTES = 64

    def __init__(self, space: AddressSpace, hierarchy: CacheHierarchy,
                 *, slice_hash=None, max_search_bytes: int = 1 << 31) -> None:
        self.space = space
        self.hierarchy = hierarchy
        # Under fine-grained partitioning an actor's accesses route with
        # its domain-restricted hash, so congruence must be classified
        # with the same function.
        self.slice_hash = (
            slice_hash if slice_hash is not None else hierarchy.slice_hash
        )
        self.max_search_bytes = max_search_bytes
        self._searched_bytes = 0
        # Per chunk: each page's virtual base and the line number of its
        # first line, in allocation order.
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []
        #: Number of candidate lines slice-hashed so far.
        self.candidate_count = 0

    def _grow(self) -> None:
        """Allocate another chunk of candidate pages."""
        page = self.space.page_bytes
        chunk_bytes = self._CHUNK_PAGES * page
        if self._searched_bytes + chunk_bytes > self.max_search_bytes:
            raise MemoryError_(
                "eviction-list search exceeded its memory budget "
                f"({self.max_search_bytes} bytes)"
            )
        allocation = self.space.allocate(chunk_bytes)
        self._searched_bytes += chunk_bytes
        frames = np.array(self.space.frames_of(allocation), dtype=np.int64)
        virtual_pages = allocation.virtual_base + page * np.arange(
            len(frames), dtype=np.int64)
        self._chunks.append(
            (virtual_pages, frames * page // self._LINE_BYTES))

    def _collect(self, count: int, slice_id: int | None, num_sets: int = 1,
                 set_index: int = 0, **labels) -> EvictionSet:
        """The first ``count`` lines, in chunk, page and offset order,
        whose index in a ``num_sets``-set cache is ``set_index`` and,
        unless ``slice_id`` is None, whose slice is ``slice_id``.

        Only those set-matching lines are slice-hashed.  A chunk is
        allocated only when the ones so far hold too few matches.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if not 0 <= set_index < num_sets:
            raise ValueError(
                f"set index {set_index} is outside [0, {num_sets})")
        allowed = self.slice_hash.allowed_slices
        if slice_id is not None and slice_id not in allowed:
            raise MemoryError_(
                f"slice {slice_id} is outside this actor's partition; "
                "no allocation can ever map there"
            )
        per_page = self.space.page_bytes // self._LINE_BYTES
        # (base + offset) % num_sets == set_index holds for one offset
        # per page and every num_sets-th one after it.
        steps = num_sets * np.arange(-(-per_page // num_sets),
                                     dtype=np.int64)
        virtual = [np.empty(0, dtype=np.int64)]
        lines = [np.empty(0, dtype=np.int64)]
        found = index = 0
        while found < count:
            if index == len(self._chunks):
                self._grow()
            pages, bases = self._chunks[index]
            index += 1
            offsets = ((set_index - bases) % num_sets)[:, None] + steps
            keep = offsets < per_page
            chunk_lines = (bases[:, None] + offsets)[keep]
            chunk_virtual = (
                pages[:, None] + offsets * self._LINE_BYTES)[keep]
            if slice_id is not None:
                self.candidate_count += len(chunk_lines)
                hit = self.slice_hash.slice_of_array(chunk_lines) == slice_id
                chunk_lines = chunk_lines[hit]
                chunk_virtual = chunk_virtual[hit]
            virtual.append(chunk_virtual)
            lines.append(chunk_lines)
            found += len(chunk_lines)
        return EvictionSet(
            virtual_addresses=tuple(np.concatenate(virtual)[:count].tolist()),
            lines=tuple(np.concatenate(lines)[:count].tolist()),
            slice_id=-1 if slice_id is None else slice_id,
            **labels,
        )

    def build_l2_list(self, slice_id: int, l2_set: int,
                      count: int) -> EvictionSet:
        """Addresses in LLC slice ``slice_id`` and L2 set ``l2_set``.

        This is the ``EV_s(i)`` of Section 3.1: with ``W_L2 <= count <=
        W_L2 + W_LLC`` addresses, cycling through the list in fixed order
        misses L2 every time while hitting the LLC slice.
        """
        l2_sets = self.hierarchy.config.l2_config.num_sets
        return self._collect(count, slice_id, l2_sets, l2_set, l2_set=l2_set)

    def build_llc_set_list(self, slice_id: int, llc_set: int,
                           count: int) -> EvictionSet:
        """Addresses in slice ``slice_id`` whose *standard* LLC set index
        is ``llc_set`` (the Prime+Probe priming list)."""
        llc_sets = self.hierarchy.config.llc_slice_config.num_sets
        return self._collect(count, slice_id, llc_sets, llc_set,
                             llc_set=llc_set)

    def build_slice_working_set(self, slice_id: int,
                                count: int) -> EvictionSet:
        """``count`` addresses anywhere in one slice (occupancy channels)."""
        return self._collect(count, slice_id)

    def build_l2_set_group(self, l2_set: int, count: int) -> EvictionSet:
        """Addresses sharing one L2 set, with *no* slice constraint.

        Used by occupancy channels (SPP): grouping by L2 set forces the
        lines to cycle between the private L2 and the LLC regardless of
        how the LLC indexes them, so the working set stays observable
        even under randomized LLC indexing.  ``slice_id`` is -1 (mixed).
        """
        l2_sets = self.hierarchy.config.l2_config.num_sets
        return self._collect(count, None, l2_sets, l2_set, l2_set=l2_set)

    def build_measurement_list(self, slice_id: int, count: int = 20,
                               l2_set: int = 0) -> EvictionSet:
        """The receiver's Listing 3 measurement list.

        Defaults match the paper: 20 addresses (between ``W_L2 = 16`` and
        ``W_L2 + W_LLC = 27``) in one L2 set of one slice.
        """
        return self.build_l2_list(slice_id, l2_set, count)
