"""G1's region-structured heap.

The heap is one reserved mapping carved into fixed-size regions (1 MiB
here; real G1 picks 1-32 MiB).  Each region is EDEN, SURVIVOR, OLD,
HUMONGOUS, or FREE.  Collections evacuate live data from a *collection
set* of regions into fresh ones, chosen garbage-first: most-garbage
regions evacuate cheapest per reclaimed byte.

The frozen-garbage mechanics mirror the serial collector's: a FREE region's
pages stay committed and dirty after evacuation (G1 only uncommits at the
concurrent-cycle sizing points), which is exactly what Desiccant releases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mem.layout import MIB, PAGE_SIZE, page_ceil

#: Modelled region size (real G1 would pick this from the heap size).
REGION_SIZE = 1 * MIB


class RegionKind(enum.Enum):
    FREE = "free"
    EDEN = "eden"
    SURVIVOR = "survivor"
    OLD = "old"
    HUMONGOUS = "humongous"


@dataclass
class Region:
    """One fixed-size heap region."""

    index: int
    kind: RegionKind = RegionKind.FREE
    top: int = 0  # bytes bump-allocated
    #: (oid, offset) pairs, address order.
    objects: List[Tuple[int, int]] = field(default_factory=list)
    #: High-water mark of dirtied bytes (demand paging bookkeeping).
    touched: int = 0
    #: For humongous objects spanning several regions: the span head.
    humongous_head: Optional[int] = None

    def __getstate__(self) -> tuple:
        """Compact pickle state (a flat tuple, the kind by value): the
        region array dominates the G1 portion of epoch checkpoints, and
        the flat form dumps faster at fewer bytes."""
        return (
            self.index,
            self.kind.value,
            self.top,
            self.objects,
            self.touched,
            self.humongous_head,
        )

    def __setstate__(self, state: tuple) -> None:
        index, kind, top, objects, touched, humongous_head = state
        self.index = index
        self.kind = RegionKind(kind)
        self.top = top
        self.objects = objects
        self.touched = touched
        self.humongous_head = humongous_head

    @property
    def free(self) -> int:
        return REGION_SIZE - self.top

    def fits(self, size: int) -> bool:
        return size <= self.free

    def bump(self, oid: int, size: int) -> int:
        if not self.fits(size):
            raise AssertionError(
                f"region {self.index}: bump of {size} exceeds free {self.free}"
            )
        offset = self.top
        self.objects.append((oid, offset))
        self.top += size
        return offset

    def live_bytes(self, sizes: Dict[int, int]) -> int:
        """Bytes of still-live objects in the region."""
        return sum(sizes.get(oid, 0) for oid, _ in self.objects)

    def garbage_bytes(self, sizes: Dict[int, int]) -> int:
        """The garbage-first ranking quantity: dead bytes in the region."""
        return self.top - self.live_bytes(sizes)

    def reset(self) -> None:
        """Return the region to the free list (pages stay dirty!)."""
        self.kind = RegionKind.FREE
        self.objects.clear()
        self.top = 0
        self.humongous_head = None


class RegionManager:
    """Allocation and kind-tracking over the region array."""

    def __init__(self, num_regions: int) -> None:
        if num_regions < 4:
            raise ValueError("G1 needs at least a handful of regions")
        self.regions = [Region(i) for i in range(num_regions)]
        #: Region currently taking allocations of each mutable kind.
        self._current: Dict[RegionKind, Optional[Region]] = {
            RegionKind.EDEN: None,
            RegionKind.SURVIVOR: None,
            RegionKind.OLD: None,
        }

    # ------------------------------------------------------------- queries

    def by_kind(self, kind: RegionKind) -> List[Region]:
        return [r for r in self.regions if r.kind is kind]

    def free_count(self) -> int:
        return sum(1 for r in self.regions if r.kind is RegionKind.FREE)

    def committed_kinds_bytes(self) -> int:
        """Bytes in non-free regions (the used heap, region-granular)."""
        return sum(
            REGION_SIZE for r in self.regions if r.kind is not RegionKind.FREE
        )

    def used_bytes(self) -> int:
        return sum(r.top for r in self.regions if r.kind is not RegionKind.FREE)

    # ---------------------------------------------------------- allocation

    def take_free(self, kind: RegionKind) -> Optional[Region]:
        """Claim a free region for ``kind`` (lowest index first)."""
        for region in self.regions:
            if region.kind is RegionKind.FREE:
                region.kind = kind
                return region
        return None

    def allocate(self, kind: RegionKind, oid: int, size: int):
        """Bump ``oid`` into the current region of ``kind``.

        Returns ``(region, offset)`` or ``None`` when no free region is
        available (the caller collects and retries).
        """
        if size > REGION_SIZE:
            raise ValueError("use allocate_humongous for multi-region objects")
        current = self._current.get(kind)
        if current is None or current.kind is not kind or not current.fits(size):
            current = self.take_free(kind)
            if current is None:
                return None
            self._current[kind] = current
        return current, current.bump(oid, size)

    def allocate_humongous(self, oid: int, size: int) -> Optional[List[Region]]:
        """Place a >= region-sized object in a contiguous run of free
        regions (G1's humongous allocation).  Returns the span or None."""
        needed = (size + REGION_SIZE - 1) // REGION_SIZE
        run: List[Region] = []
        for region in self.regions:
            if region.kind is RegionKind.FREE:
                run.append(region)
                if len(run) == needed:
                    head = run[0]
                    for member in run:
                        member.kind = RegionKind.HUMONGOUS
                        member.humongous_head = head.index
                    head.objects.append((oid, 0))
                    head.top = min(size, REGION_SIZE)
                    for member in run[1:]:
                        member.top = min(
                            REGION_SIZE, size - run.index(member) * REGION_SIZE
                        )
                    return run
            else:
                run = []
        return None

    def humongous_span(self, head_index: int) -> List[Region]:
        return [
            r for r in self.regions if r.humongous_head == head_index
        ]

    def retire_current(self) -> None:
        """Stop bump allocation in all current regions (GC boundary)."""
        for kind in self._current:
            self._current[kind] = None
