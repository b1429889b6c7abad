"""Physical frame allocation and per-process address spaces.

The model is deliberately OS-like:

* :class:`PhysicalMemory` hands out page frames, optionally constrained
  to a NUMA node (socket).  The coarse-grained partitioning defense of
  Section 4.4 enforces a *NUMA-strict* policy — a domain pinned to
  socket 1 cannot obtain (or map) frames on socket 0.
* :class:`AddressSpace` is one process's view: virtual pages mapped to
  frames.  Translation is what the cache hierarchy consumes.
* :class:`SharedSegment` maps the *same* frames into two address spaces,
  which is the prerequisite the data-reuse channels (Flush+Reload and
  friends) need and that the paper's threat model excludes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MemoryError_


@dataclass(frozen=True)
class Allocation:
    """A contiguous virtual allocation inside one address space."""

    virtual_base: int
    size_bytes: int
    page_bytes: int
    numa_node: int

    @property
    def virtual_end(self) -> int:
        return self.virtual_base + self.size_bytes

    def addresses(self, stride: int) -> list[int]:
        """Virtual addresses at ``stride``-byte intervals across the
        allocation (handy for building access patterns)."""
        return list(range(self.virtual_base, self.virtual_end, stride))


class PhysicalMemory:
    """Page-frame allocator over the platform's physical memory.

    Frames are dealt out with a deterministic but non-trivial placement
    (a linear-congruential walk over the frame space) so that physically
    indexed cache sets receive a realistic spread of allocations without
    needing a random source.
    """

    def __init__(self, total_bytes: int, page_bytes: int,
                 num_numa_nodes: int = 1) -> None:
        if total_bytes % page_bytes != 0:
            raise MemoryError_("physical memory must be whole pages")
        if num_numa_nodes <= 0:
            raise MemoryError_("need at least one NUMA node")
        self.page_bytes = page_bytes
        self.num_numa_nodes = num_numa_nodes
        self._frames_per_node = total_bytes // page_bytes // num_numa_nodes
        self._allocated: list[set[int]] = [set() for _ in
                                           range(num_numa_nodes)]
        # Per-node placement cursor; coprime stride walks all frames.
        self._cursor: list[int] = [0] * num_numa_nodes
        self._stride = self._coprime_stride(self._frames_per_node)

    @staticmethod
    def _coprime_stride(n: int) -> int:
        """A stride coprime with ``n`` that scatters consecutive frames."""
        import math
        candidate = max(3, n // 7) | 1
        while math.gcd(candidate, n) != 1:
            candidate += 2
        return candidate

    @property
    def frames_per_node(self) -> int:
        return self._frames_per_node

    def frames_allocated(self, numa_node: int = 0) -> int:
        """Number of frames currently allocated on a node."""
        return len(self._allocated[numa_node])

    def _node_base(self, numa_node: int) -> int:
        return numa_node * self._frames_per_node

    def allocate_frames(self, count: int, numa_node: int = 0) -> list[int]:
        """Allocate ``count`` frames on a node; returns frame numbers.

        Raises :class:`MemoryError_` when the node is exhausted.
        """
        if not 0 <= numa_node < self.num_numa_nodes:
            raise MemoryError_(f"no such NUMA node {numa_node}")
        allocated = self._allocated[numa_node]
        if len(allocated) + count > self._frames_per_node:
            raise MemoryError_(
                f"NUMA node {numa_node} out of frames "
                f"({count} requested, "
                f"{self._frames_per_node - len(allocated)} free)"
            )
        frames: list[int] = []
        cursor = self._cursor[numa_node]
        while len(frames) < count:
            cursor = (cursor + self._stride) % self._frames_per_node
            if cursor not in allocated:
                allocated.add(cursor)
                frames.append(self._node_base(numa_node) + cursor)
        self._cursor[numa_node] = cursor
        return frames

    def allocate_contiguous(self, count: int, numa_node: int = 0) -> int:
        """Allocate ``count`` physically consecutive frames.

        Scans aligned candidate runs, mirroring how the OS huge-page
        pool hands out compound pages.  Returns the first (global)
        frame number; raises :class:`MemoryError_` when fragmentation
        leaves no run.
        """
        if not 0 <= numa_node < self.num_numa_nodes:
            raise MemoryError_(f"no such NUMA node {numa_node}")
        if count <= 0:
            raise MemoryError_("need a positive frame count")
        allocated = self._allocated[numa_node]
        for start in range(0, self._frames_per_node - count + 1, count):
            if all((start + i) not in allocated for i in range(count)):
                for i in range(count):
                    allocated.add(start + i)
                return self._node_base(numa_node) + start
        raise MemoryError_(
            f"no contiguous run of {count} frames left on node "
            f"{numa_node}"
        )

    def free_frames(self, frames: list[int]) -> None:
        """Return frames to the allocator."""
        for frame in frames:
            node = frame // self._frames_per_node
            local = frame % self._frames_per_node
            self._allocated[node].discard(local)

    def frame_address(self, frame: int) -> int:
        """Physical base address of a frame."""
        return frame * self.page_bytes


@dataclass
class SharedSegment:
    """Physical frames mapped into more than one address space.

    ``owner_domain`` records the security domain that created the
    segment: partitioned platforms refuse to map it into a different
    domain (sharing across partitions would defeat the partition).
    """

    frames: list[int]
    page_bytes: int
    owner_domain: int = 0
    mappings: dict[str, int] = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        return len(self.frames) * self.page_bytes


class AddressSpace:
    """One process's virtual memory: page table plus allocation arena."""

    _VIRTUAL_BASE = 0x5555_0000_0000

    def __init__(self, name: str, memory: PhysicalMemory,
                 numa_node: int = 0, *, numa_strict: bool = False) -> None:
        self.name = name
        self.memory = memory
        self.numa_node = numa_node
        self.numa_strict = numa_strict
        self._page_table: dict[int, int] = {}  # virtual page -> frame
        self._next_virtual = self._VIRTUAL_BASE
        self._allocations: list[Allocation] = []

    @property
    def page_bytes(self) -> int:
        return self.memory.page_bytes

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        return tuple(self._allocations)

    def _check_node(self, numa_node: int) -> None:
        if self.numa_strict and numa_node != self.numa_node:
            raise MemoryError_(
                f"{self.name}: NUMA-strict policy forbids allocating on "
                f"node {numa_node} (home node is {self.numa_node})"
            )

    def allocate(self, size_bytes: int,
                 numa_node: int | None = None) -> Allocation:
        """Allocate and map ``size_bytes`` (rounded up to whole pages)."""
        node = self.numa_node if numa_node is None else numa_node
        self._check_node(node)
        page = self.page_bytes
        pages = -(-size_bytes // page)
        frames = self.memory.allocate_frames(pages, node)
        base = self._next_virtual
        for i, frame in enumerate(frames):
            self._page_table[(base // page) + i] = frame
        self._next_virtual = base + pages * page
        allocation = Allocation(base, pages * page, page, node)
        self._allocations.append(allocation)
        return allocation

    def allocate_huge(self, size_bytes: int, huge_page_bytes: int,
                      numa_node: int | None = None) -> Allocation:
        """Allocate physically-contiguous huge pages.

        Many prior covert channels rely on huge pages because the
        2 MB-contiguous physical span exposes the full cache set index
        under attacker control (cited channels [36, 42, 63, 65]).
        UF-variation's threat model explicitly does *not* need them
        (Section 4.1); this exists for the baselines and for ablations.

        Each huge page is backed by a run of physically consecutive
        base frames, so virtual offsets map to physical offsets across
        the whole huge page.
        """
        node = self.numa_node if numa_node is None else numa_node
        self._check_node(node)
        if huge_page_bytes % self.page_bytes != 0:
            raise MemoryError_(
                "huge page size must be a multiple of the base page"
            )
        frames_per_huge = huge_page_bytes // self.page_bytes
        huge_pages = -(-size_bytes // huge_page_bytes)
        base = self._next_virtual
        # Align the virtual base to the huge page size so virtual
        # low-order bits equal physical low-order bits.
        if base % huge_page_bytes:
            base += huge_page_bytes - (base % huge_page_bytes)
        page = self.page_bytes
        for huge_index in range(huge_pages):
            first = self._reserve_contiguous(frames_per_huge, node)
            for i in range(frames_per_huge):
                virtual_page = (
                    (base + huge_index * huge_page_bytes) // page + i
                )
                self._page_table[virtual_page] = first + i
        self._next_virtual = base + huge_pages * huge_page_bytes
        allocation = Allocation(base, huge_pages * huge_page_bytes,
                                huge_page_bytes, node)
        self._allocations.append(allocation)
        return allocation

    def _reserve_contiguous(self, count: int, node: int) -> int:
        """Claim ``count`` physically consecutive frames on a node."""
        return self.memory.allocate_contiguous(count, node)

    def map_shared(self, segment: SharedSegment,
                   owner_node: int = 0) -> Allocation:
        """Map an existing shared segment into this address space."""
        self._check_node(owner_node)
        page = self.page_bytes
        if segment.page_bytes != page:
            raise MemoryError_("shared segment page size mismatch")
        base = self._next_virtual
        for i, frame in enumerate(segment.frames):
            self._page_table[(base // page) + i] = frame
        self._next_virtual = base + len(segment.frames) * page
        segment.mappings[self.name] = base
        allocation = Allocation(base, segment.size_bytes, page, owner_node)
        self._allocations.append(allocation)
        return allocation

    def create_shared(self, size_bytes: int,
                      numa_node: int | None = None) -> SharedSegment:
        """Allocate frames for a segment that other spaces may map."""
        node = self.numa_node if numa_node is None else numa_node
        self._check_node(node)
        pages = -(-size_bytes // self.page_bytes)
        frames = self.memory.allocate_frames(pages, node)
        segment = SharedSegment(frames=frames, page_bytes=self.page_bytes)
        return segment

    def frames_of(self, allocation: Allocation) -> list[int]:
        """The frame behind each base page of ``allocation``, in order."""
        page = self.page_bytes
        first = allocation.virtual_base // page
        table = self._page_table
        return [table[first + i]
                for i in range(allocation.size_bytes // page)]

    def translate(self, virtual: int) -> int:
        """Virtual-to-physical translation; raises on an unmapped page."""
        page = self.page_bytes
        frame = self._page_table.get(virtual // page)
        if frame is None:
            raise MemoryError_(
                f"{self.name}: page fault at virtual 0x{virtual:x}"
            )
        return frame * page + (virtual % page)

    def is_mapped(self, virtual: int) -> bool:
        """Whether the page containing ``virtual`` is mapped."""
        return (virtual // self.page_bytes) in self._page_table
