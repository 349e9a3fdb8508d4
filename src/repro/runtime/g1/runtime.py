"""The G1 runtime simulator.

Collection model (simplified but structurally faithful):

* **Young collections** evacuate every eden+survivor region; survivors age
  and promote to old regions after ``tenure_threshold`` copies.
* When old-region occupancy crosses the **IHOP** fraction, a marking cycle
  runs and subsequent **mixed collections** add the most-garbage old
  regions to the collection set -- the garbage-first heuristic.
* Humongous objects (>= half a region) take contiguous region runs and die
  at marking.
* Evacuated regions return to the FREE list, but their pages remain
  committed and dirty -- G1 hands memory back to the OS even more rarely
  than the serial collector, so the frozen-garbage story is unchanged and
  §7's claim holds: Desiccant reclaims by running a collection and then
  releasing every FREE region's pages plus the allocated regions' tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.mem.layout import MIB, Protection, page_ceil
from repro.mem.vmm import Mapping
from repro.runtime import costs
from repro.runtime.base import (
    HeapStats,
    LibrarySpec,
    ManagedRuntime,
    OutOfMemory,
    RuntimeConfig,
)
from repro.runtime.g1.regions import REGION_SIZE, Region, RegionKind, RegionManager


@dataclass
class G1Config(RuntimeConfig):
    """G1-specific knobs."""

    #: Old-occupancy fraction starting a marking cycle (InitiatingHeapOccupancyPercent).
    ihop: float = 0.45
    #: Young collections an object survives before promotion.
    tenure_threshold: int = 4
    #: Eden regions allowed before a young collection triggers.
    young_target_regions: int = 4
    #: Old regions evacuated per mixed collection (G1MixedGCCountTarget-ish).
    mixed_regions_per_gc: int = 8
    #: Old regions below this garbage fraction are not worth evacuating
    #: (G1HeapWastePercent-ish).
    mixed_garbage_threshold: float = 0.15
    boot_seconds: float = 0.45
    native_boot_bytes: int = 6 * MIB  # G1's remembered sets cost extra
    native_init_bytes: int = 3 * MIB


class G1Runtime(ManagedRuntime):
    """Region-based garbage-first collector."""

    language = "java"
    default_libraries = (
        LibrarySpec("/usr/lib/jvm/libjvm.so", 18 * MIB, touched_fraction=0.55),
        LibrarySpec("/usr/lib/jvm/lib-java-base.so", 7 * MIB, touched_fraction=0.6),
    )

    def __init__(self, name, config: G1Config | None = None, **kwargs) -> None:
        super().__init__(name, config or G1Config(), **kwargs)
        self._heap: Mapping | None = None
        self._regions: RegionManager | None = None
        self._marking_done = False
        self.young_gc_count = 0
        self.mixed_gc_count = 0
        self.full_gc_count = 0

    # ------------------------------------------------------------------ heap

    def _setup_heap(self) -> float:
        cfg: G1Config = self.config  # type: ignore[assignment]
        num_regions = max(8, cfg.max_heap // REGION_SIZE)
        self._heap = self.space.mmap(
            num_regions * REGION_SIZE, prot=Protection.NONE, name="[g1 heap]"
        )
        self._regions = RegionManager(num_regions)
        return 0.0

    def _region_base(self, region: Region) -> int:
        return self._heap.start + region.index * REGION_SIZE

    def _commit_region(self, region: Region) -> None:
        base = self._region_base(region)
        mapping = self.space.find_mapping(base)
        if mapping is not None and mapping.prot & Protection.WRITE:
            return
        self.space.commit(base, REGION_SIZE)

    def _materialize(self, region: Region) -> None:
        if region.top <= region.touched:
            return
        counts = self.space.touch(
            self._region_base(region) + region.touched,
            region.top - region.touched,
        )
        self._charge_faults(counts.minor, counts.major)
        region.touched = page_ceil(region.top)

    # ------------------------------------------------------------ placement

    def _place(self, oid: int) -> None:
        size = self.graph.objects[oid].size
        if size >= REGION_SIZE // 2:
            self._place_humongous(oid, size)
            return
        placed = self._try_bump(RegionKind.EDEN, oid, size)
        if placed is None:
            self.collect(full=False)
            placed = self._try_bump(RegionKind.EDEN, oid, size)
        if placed is None:
            self.collect(full=True)
            placed = self._try_bump(RegionKind.EDEN, oid, size)
        if placed is None:
            raise OutOfMemory(f"{self.name}: no free region for {size} bytes")
        if len(self._regions.by_kind(RegionKind.EDEN)) > self._young_target():
            self.collect(full=False)

    def _young_target(self) -> int:
        cfg: G1Config = self.config  # type: ignore[assignment]
        return cfg.young_target_regions

    def _try_bump(self, kind: RegionKind, oid: int, size: int) -> Optional[Region]:
        result = self._regions.allocate(kind, oid, size)
        if result is None:
            return None
        region, _offset = result
        self._commit_region(region)
        self._materialize(region)
        return region

    def _place_humongous(self, oid: int, size: int) -> None:
        span = self._regions.allocate_humongous(oid, size)
        if span is None:
            self.collect(full=True)
            span = self._regions.allocate_humongous(oid, size)
        if span is None:
            raise OutOfMemory(f"{self.name}: no contiguous run for {size} bytes")
        for region in span:
            self._commit_region(region)
            self._materialize(region)

    # ------------------------------------------------------------------- GC

    def collect(self, full: bool, aggressive: bool = False) -> float:
        self._check_booted()
        if full:
            return self._full_gc(aggressive)
        return self._young_or_mixed_gc(aggressive)

    def _young_or_mixed_gc(self, aggressive: bool) -> float:
        cfg: G1Config = self.config  # type: ignore[assignment]
        live = self.graph.reachable(include_weak=not aggressive)
        sizes = {
            oid: self.graph.objects[oid].size
            for oid in live
            if oid in self.graph.objects
        }

        collection_set = self._regions.by_kind(RegionKind.EDEN) + self._regions.by_kind(
            RegionKind.SURVIVOR
        )
        mixed = False
        if self._marking_done:
            candidates = sorted(
                self._regions.by_kind(RegionKind.OLD),
                key=lambda r: -r.garbage_bytes(sizes),
            )
            chosen = [
                r
                for r in candidates[: cfg.mixed_regions_per_gc]
                if r.garbage_bytes(sizes) > cfg.mixed_garbage_threshold * REGION_SIZE
            ]
            if chosen:
                collection_set.extend(chosen)
                mixed = True
            self._marking_done = False

        seconds = self._evacuate(collection_set, live, sizes)
        self._sweep_humongous(live)
        self._collect_dead(live)

        # IHOP check: heavy old occupancy schedules marking, making the
        # *next* young collection a mixed one.
        old_bytes = sum(r.top for r in self._regions.by_kind(RegionKind.OLD))
        if old_bytes > cfg.ihop * len(self._regions.regions) * REGION_SIZE:
            self._marking_done = True
            seconds += costs.trace_cost(sum(sizes.values()))

        if mixed:
            self.mixed_gc_count += 1
        else:
            self.young_gc_count += 1
        self._record_gc(
            "mixed" if mixed else "young", seconds, 0, sum(sizes.values())
        )
        return seconds

    def _full_gc(self, aggressive: bool) -> float:
        """Evacuate everything: the compacting fallback."""
        live = self.graph.reachable(include_weak=not aggressive)
        sizes = {
            oid: self.graph.objects[oid].size
            for oid in live
            if oid in self.graph.objects
        }
        collection_set = [
            r
            for r in self._regions.regions
            if r.kind in (RegionKind.EDEN, RegionKind.SURVIVOR, RegionKind.OLD)
        ]
        seconds = self._evacuate(
            collection_set, live, sizes, promote_everything=True
        )
        self._sweep_humongous(live)
        self._collect_dead(live)
        self._marking_done = False
        self.full_gc_count += 1
        self._record_gc("full", seconds, 0, sum(sizes.values()))
        return seconds

    def _evacuate(
        self,
        collection_set: List[Region],
        live: set,
        sizes: Dict[int, int],
        promote_everything: bool = False,
    ) -> float:
        cfg: G1Config = self.config  # type: ignore[assignment]
        survivors: List[int] = []
        for region in collection_set:
            survivors.extend(oid for oid, _ in region.objects if oid in live)
            region.reset()  # FREE again; pages stay dirty
        self._regions.retire_current()

        copied = 0
        for oid in survivors:
            obj = self.graph.objects[oid]
            obj.age += 1
            # Young survivors age toward promotion; anything already past
            # the threshold (including mixed-cset old objects) re-lands in
            # old regions.
            promote = promote_everything or obj.age >= cfg.tenure_threshold
            kind = RegionKind.OLD if promote else RegionKind.SURVIVOR
            placed = self._try_bump(kind, oid, obj.size)
            if placed is None:
                raise OutOfMemory(
                    f"{self.name}: evacuation failure for {obj.size} bytes"
                )
            copied += obj.size
        return self._parallel_pause(
            costs.trace_cost(copied) + costs.copy_cost(copied)
        )

    def _sweep_humongous(self, live: set) -> None:
        for region in self._regions.by_kind(RegionKind.HUMONGOUS):
            if region.humongous_head != region.index:
                continue
            head_objects = [oid for oid, _ in region.objects]
            if any(oid in live for oid in head_objects):
                continue
            for member in self._regions.humongous_span(region.index):
                member.reset()

    def _collect_dead(self, live: set) -> None:
        _count, _bytes = self.graph.sweep(live)

    # -------------------------------------------------------------- reclaim

    def _release_free_pages(self) -> int:
        """§7: every FREE region's pages and the allocated regions' free
        tails."""
        released = 0
        for region in self._regions.regions:
            base = self._region_base(region)
            if region.kind is RegionKind.FREE:
                released += self.space.discard(base, REGION_SIZE)
                region.touched = 0
            else:
                tail = page_ceil(region.top)
                if REGION_SIZE > tail:
                    released += self.space.discard(base + tail, REGION_SIZE - tail)
                    region.touched = min(region.touched, tail)
        return released

    # -------------------------------------------------------------- metrics

    def heap_stats(self) -> HeapStats:
        """Committed/used/live-estimate snapshot."""
        return HeapStats(
            committed=self._regions.committed_kinds_bytes(),
            used=self._regions.used_bytes(),
            live_estimate=self.last_gc_live_bytes,
        )

    def _touch_live_heap(self) -> float:
        spans = []
        for region in self._regions.regions:
            if region.kind is RegionKind.FREE:
                continue
            base = self._region_base(region)
            for oid, offset in region.objects:
                obj = self.graph.objects.get(oid)
                if obj is not None:
                    spans.append((base + offset, min(obj.size, REGION_SIZE - offset)))
        return self._touch_object_spans(spans)

    def _heap_mappings(self) -> List[Mapping]:
        start = self._heap.start
        end = start + len(self._regions.regions) * REGION_SIZE
        return self.space.mappings_in(start, end)
