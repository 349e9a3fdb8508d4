"""The HotSpot serial-GC runtime simulator.

Layout: one reserved mapping holds ``[ old | eden | from | to ]``.  The
young generation is collected by a copying scavenge with age-based
promotion; full collections mark-sweep-compact everything into the bottom
of the old generation (so ``[top, end)`` of every space is free afterwards,
exactly the region Algorithm 1 releases).

The §3.2.1 behaviours the characterization depends on:

* expanding/shrinking happen via commit/uncommit on the reserved mapping
  (``mmap``-based, so *shrinking* does release physical memory), but
* free pages **below** the committed boundary are never returned to the OS
  -- eden's dirty pages after a scavenge, the idle survivor space, the old
  generation's tail -- which is precisely the frozen garbage, and
* ``System.gc()`` forces a full collection *and* a resize, which is why the
  eager baseline does shrink the heap (Figure 2a) yet still strands free
  pages that only Desiccant's ``reclaim`` releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.mem.layout import MIB, Protection, page_ceil
from repro.mem.vmm import Mapping
from repro.runtime import costs
from repro.runtime.base import (
    HeapStats,
    LibrarySpec,
    ManagedRuntime,
    OutOfMemory,
    ReclaimOutcome,
    RuntimeConfig,
)
from repro.runtime.hotspot.policy import ResizePolicy
from repro.runtime.hotspot.spaces import ContiguousSpace


@dataclass
class HotSpotConfig(RuntimeConfig):
    """HotSpot-specific knobs on top of the common runtime config."""

    policy: ResizePolicy = field(default_factory=ResizePolicy)
    #: Scavenges an object must survive before promotion
    #: (MaxTenuringThreshold; promotion still happens on survivor overflow).
    tenure_threshold: int = 15
    #: Initial committed heap = max_heap / divisor (clamped to >= 8 MiB);
    #: HotSpot's InitialHeapSize default is 1/64 of physical memory, which
    #: keeps the initial footprint budget-independent (Figure 4a is flat).
    initial_heap_divisor: int = 64
    boot_seconds: float = 0.45  # JVM cold boot is the expensive one
    native_boot_bytes: int = 5 * MIB
    native_init_bytes: int = 3 * MIB


class HotSpotRuntime(ManagedRuntime):
    """Generational serial collector over a contiguous reserved heap."""

    language = "java"
    default_libraries = (
        LibrarySpec("/usr/lib/jvm/libjvm.so", 18 * MIB, touched_fraction=0.55),
        LibrarySpec("/usr/lib/jvm/lib-java-base.so", 7 * MIB, touched_fraction=0.6),
    )

    def __init__(self, name, config: HotSpotConfig | None = None, **kwargs) -> None:
        super().__init__(name, config or HotSpotConfig(), **kwargs)
        self._heap: Mapping | None = None
        self._old: ContiguousSpace | None = None
        self._eden: ContiguousSpace | None = None
        self._from: ContiguousSpace | None = None
        self._to: ContiguousSpace | None = None
        self._where: Dict[int, ContiguousSpace] = {}
        self.young_gc_count = 0
        self.full_gc_count = 0

    # ------------------------------------------------------------------ heap

    def _setup_heap(self) -> float:
        cfg: HotSpotConfig = self.config  # type: ignore[assignment]
        policy = cfg.policy
        max_heap = page_ceil(cfg.max_heap)
        young_reserved = page_ceil(max_heap // (policy.new_ratio + 1))
        old_reserved = max_heap - young_reserved
        eden_reserved, survivor_reserved = policy.split_young(young_reserved)

        self._heap = self.space.mmap(
            max_heap, prot=Protection.NONE, name="[java heap]"
        )
        offset = 0
        self._old = ContiguousSpace("old", offset, old_reserved)
        offset += old_reserved
        self._eden = ContiguousSpace("eden", offset, eden_reserved)
        offset += eden_reserved
        self._from = ContiguousSpace("from", offset, survivor_reserved)
        offset += survivor_reserved
        self._to = ContiguousSpace("to", offset, survivor_reserved)

        initial = max(8 * MIB, max_heap // cfg.initial_heap_divisor)
        initial = min(initial, max_heap)
        old_initial = policy.target_old_committed(0, 0, old_reserved)
        old_initial = max(old_initial, page_ceil(initial * 2 // 3))
        self._set_committed(self._old, min(old_initial, old_reserved))
        young_initial = policy.target_young_committed(
            self._old.committed, young_reserved
        )
        self._apply_young_committed(young_initial)
        return 0.0

    def _spaces(self) -> List[ContiguousSpace]:
        return [self._old, self._eden, self._from, self._to]

    def _set_committed(self, space: ContiguousSpace, target: int) -> None:
        target = page_ceil(min(max(target, space.top), space.reserved))
        if target == space.committed:
            return
        base = self._heap.start + space.offset
        if target > space.committed:
            self.space.commit(base + space.committed, target - space.committed)
        else:
            self.space.uncommit(base + target, space.committed - target)
            space.touched = min(space.touched, target)
        space.committed = target

    def _materialize(self, space: ContiguousSpace) -> None:
        """Dirty the pages behind newly-bumped bytes (demand paging)."""
        if space.top <= space.touched:
            return
        base = self._heap.start + space.offset
        counts = self.space.touch(base + space.touched, space.top - space.touched)
        self._charge_faults(counts.minor, counts.major)
        space.touched = page_ceil(space.top)

    # ------------------------------------------------------------ placement

    def _place(self, oid: int) -> None:
        size = self.graph.objects[oid].size
        if size > self._eden.reserved:
            self._place_old_direct(oid, size)
            return
        if not self._eden.fits(size):
            self.collect(full=False)
            if not self._eden.fits(size):
                # Eden is committed too small for this allocation burst.
                needed = page_ceil(self._eden.top + size)
                if needed <= self._eden.reserved:
                    self._set_committed(self._eden, needed)
                else:
                    self._place_old_direct(oid, size)
                    return
        self._eden.bump(oid, size)
        self._where[oid] = self._eden
        self._materialize(self._eden)

    def _supports_cohorts(self, unit: int) -> bool:
        return unit <= self._eden.reserved

    def _alloc_cohort_fast(self, count: int, unit: int, scope: str) -> List[int]:
        """Bump whole runs into eden, one segment per run that fits.

        Each segment is the longest run that fits ``eden.free``: one
        cohort node, one bump, one page touch from eden's ``touched``
        watermark.  The member that does not fit goes through
        :meth:`~ManagedRuntime.alloc` unbatched, so the scavenge (and any
        eden growth) it triggers sees exactly the scalar path's graph.
        """
        eden = self._eden
        base = self._heap.start + eden.offset
        oids: List[int] = []
        placed = 0
        while placed < count:
            members = min(count - placed, eden.free // unit)
            if not members:
                oids.append(self.alloc(unit, scope=scope))
                placed += 1
                continue
            oid = self.graph.new_cohort(members, unit)

            def place(oid: int = oid, members: int = members) -> None:
                addr = base + eden.top
                eden.bump(oid, members * unit)
                self._where[oid] = eden
                self._touch_cohort_segment(addr, unit, members, base + eden.touched)
                eden.touched = max(eden.touched, page_ceil(eden.top))

            self._place_cohort_segment(oid, scope, place)
            oids.append(oid)
            placed += members
        return oids

    def _place_old_direct(self, oid: int, size: int) -> None:
        if not self._old.fits(size):
            self._ensure_old_capacity(size)
        if not self._old.fits(size):
            raise OutOfMemory(
                f"{self.name}: {size} bytes exceed old generation "
                f"({self._old.free} free of {self._old.reserved} reserved)"
            )
        self._old.bump(oid, size)
        self._where[oid] = self._old
        self._materialize(self._old)

    def _ensure_old_capacity(self, size: int) -> None:
        needed = page_ceil(self._old.top + size)
        if needed <= self._old.reserved:
            grown = max(needed, int(self._old.committed * 1.25))
            self._set_committed(self._old, min(page_ceil(grown), self._old.reserved))
        if not self._old.fits(size):
            self.collect(full=True)
        if not self._old.fits(size):
            self._set_committed(self._old, self._old.reserved)

    # ------------------------------------------------------------------- GC

    def collect(self, full: bool, aggressive: bool = False) -> float:
        self._check_booted()
        if full:
            return self._full_gc(aggressive)
        return self._young_gc()

    def _young_gc(self) -> float:
        live = self.graph.reachable(include_weak=True)
        young = self._eden.objects + self._from.objects
        survivors = [oid for oid in young if oid in live]
        dead = [oid for oid in young if oid not in live]
        cfg: HotSpotConfig = self.config  # type: ignore[assignment]

        # Reserve promotion room up front (worst case: every survivor
        # promotes).  If the old generation cannot hold them even fully
        # expanded, a full collection replaces the scavenge -- decided
        # *before* any evacuation so the spaces stay consistent.
        worst_case = sum(self.graph.objects[oid].size for oid in survivors)
        if self._old.free < worst_case:
            target = page_ceil(self._old.top + worst_case)
            if target > self._old.reserved:
                return self._full_gc(aggressive=False)
            self._set_committed(self._old, max(target, self._old.committed))

        copied = 0
        promoted = 0
        self._to.reset()
        for oid in survivors:
            obj = self.graph.objects[oid]
            obj.age += 1
            if obj.age < cfg.tenure_threshold:
                tail = self._split_cohort_to_fit(oid, self._to.free, live)
                if tail is not None:
                    # The leading members fill ``to``; the rest overflow.
                    self._to.bump(oid, obj.size)
                    self._where[oid] = self._to
                    copied += obj.size
                    oid, obj = tail, self.graph.objects[tail]
            if obj.age >= cfg.tenure_threshold or not self._to.fits(obj.size):
                self._old.bump(oid, obj.size)
                self._where[oid] = self._old
                promoted += obj.size
            else:
                self._to.bump(oid, obj.size)
                self._where[oid] = self._to
                copied += obj.size
        self._materialize(self._to)
        self._materialize(self._old)

        collected = 0
        for oid in dead:
            collected += self.graph.objects[oid].size
            del self.graph.objects[oid]
            self._where.pop(oid, None)

        self._eden.reset()
        self._from.reset()
        self._from, self._to = self._to, self._from

        # HotSpot also grows the young generation as the old one grows
        # (§3.2.1: young size is determined by the old generation size).
        # Grow eden and the survivors independently -- an eden inflated by
        # a large allocation must not starve the survivor spaces, or every
        # scavenge drips overflow promotions into the old generation.
        # Young shrinking only happens in the post-full-GC resize.
        young_reserved = (
            self._eden.reserved + self._from.reserved + self._to.reserved
        )
        target_young = cfg.policy.target_young_committed(
            self._old.committed, young_reserved
        )
        eden_target, survivor_target = cfg.policy.split_young(target_young)
        if eden_target > self._eden.committed:
            self._set_committed(self._eden, min(eden_target, self._eden.reserved))
        for survivor in (self._from, self._to):
            if survivor_target > survivor.committed:
                self._set_committed(
                    survivor, min(survivor_target, survivor.reserved)
                )

        live_young = copied + promoted
        total_live = sum(
            self.graph.objects[oid].size for oid in live if oid in self.graph.objects
        )
        seconds = self._parallel_pause(
            costs.trace_cost(live_young) + costs.copy_cost(copied + promoted)
        )
        self.young_gc_count += 1
        self._record_gc("young", seconds, collected, total_live)
        return seconds

    def _full_gc(self, aggressive: bool) -> float:
        live = self.graph.reachable(include_weak=not aggressive)
        _count, collected = self.graph.sweep(live)
        for oid in list(self._where):
            if oid not in self.graph.objects:
                del self._where[oid]

        # Mark-sweep-compact: slide every live object to the bottom of the
        # old generation, preserving address order (old first, then young).
        ordered: List[int] = []
        seen = set()
        for space in (self._old, self._eden, self._from, self._to):
            for oid in space.objects:
                if oid in self.graph.objects and oid not in seen:
                    seen.add(oid)
                    ordered.append(oid)
            space.reset()
        live_bytes = sum(self.graph.objects[oid].size for oid in ordered)
        if live_bytes > self._old.reserved:
            raise OutOfMemory(
                f"{self.name}: {live_bytes} live bytes exceed old reserve"
            )
        self._set_committed(self._old, max(self._old.committed, page_ceil(live_bytes)))
        for oid in ordered:
            self._old.bump(oid, self.graph.objects[oid].size)
            self._where[oid] = self._old
        self._materialize(self._old)

        seconds = self._parallel_pause(
            costs.trace_cost(live_bytes) + costs.copy_cost(live_bytes)
        )
        self._resize_after_full_gc()
        self.full_gc_count += 1
        self._record_gc("full", seconds, collected, live_bytes)
        return seconds

    def _resize_after_full_gc(self) -> None:
        cfg: HotSpotConfig = self.config  # type: ignore[assignment]
        policy = cfg.policy
        old_target = policy.target_old_committed(
            self._old.top, self._old.committed, self._old.reserved
        )
        self._set_committed(self._old, old_target)
        young_reserved = (
            self._eden.reserved + self._from.reserved + self._to.reserved
        )
        self._apply_young_committed(
            policy.target_young_committed(self._old.committed, young_reserved)
        )

    def _apply_young_committed(self, young_committed: int) -> None:
        cfg: HotSpotConfig = self.config  # type: ignore[assignment]
        eden_target, survivor_target = cfg.policy.split_young(young_committed)
        self._set_committed(self._eden, min(eden_target, self._eden.reserved))
        for surv in (self._from, self._to):
            self._set_committed(surv, min(survivor_target, surv.reserved))

    # -------------------------------------------------------------- reclaim

    def reclaim(self, aggressive: bool = False) -> ReclaimOutcome:
        """Algorithm 1: collect all generations, resize, release free pages."""
        uss_before = self.uss()
        gc_seconds = self._full_gc(aggressive)
        released_pages = 0
        for space in self._spaces():
            begin, end = space.release_range()
            if end > begin:
                released_pages += self.space.discard(
                    self._heap.start + begin, end - begin
                )
            space.touched = min(space.touched, page_ceil(space.top))
        discarded = released_pages * 4096
        seconds = gc_seconds + costs.release_cost(discarded)
        uss_after = self.uss()
        return ReclaimOutcome(
            live_bytes=self.last_gc_live_bytes,
            # Report everything returned to the OS: discarded free pages
            # plus whatever the GC's own resize uncommitted.
            released_bytes=max(discarded, uss_before - uss_after),
            cpu_seconds=seconds,
            uss_before=uss_before,
            uss_after=uss_after,
            aggressive=aggressive,
        )

    # -------------------------------------------------------------- metrics

    def heap_stats(self) -> HeapStats:
        self._memo_materialize()
        return HeapStats(
            committed=sum(s.committed for s in self._spaces()),
            used=sum(s.top for s in self._spaces()),
            live_estimate=self.last_gc_live_bytes,
        )

    def _touch_live_heap(self) -> float:
        seconds = 0.0
        for space in (self._old, self._from):
            if space.top > 0:
                counts = self.space.touch(
                    self._heap.start + space.offset, space.top
                )
                seconds += self._charge_faults(counts.minor, counts.major)
        return seconds

    def _heap_mappings(self) -> List[Mapping]:
        start, end = self._heap.start, self._heap.start + self._reserved_bytes()
        return [
            m for m in self.space.mappings() if m.start < end and m.end > start
        ]

    def _reserved_bytes(self) -> int:
        return sum(s.reserved for s in self._spaces())
