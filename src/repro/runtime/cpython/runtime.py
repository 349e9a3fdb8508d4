"""The CPython runtime simulator, per the paper's §7 discussion.

CPython's obmalloc manages memory in 256 KiB *arenas* and only returns an
arena to the OS when it becomes completely empty, so fragmentation strands
free memory inside arenas across a freeze -- the same frozen-garbage shape
as the other runtimes, without generations.  The §7 recipe for applying
Desiccant: use the mark-sweep collector plus the allocator's internal
structures to find free regions, then release them with ``mmap``; that is
exactly what :meth:`CPythonRuntime.reclaim` does.

The arena machinery reuses :class:`ChunkedSpace` (same 256 KiB granularity;
the reserved first page stands in for pool headers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.mem.layout import KIB, MIB, PAGE_SIZE, page_ceil
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
from repro.runtime.v8.chunks import CHUNK_PAYLOAD, ChunkedSpace


@dataclass
class CPythonConfig(RuntimeConfig):
    """CPython-specific knobs."""

    #: Allocations at or above this size bypass arenas (obmalloc's 512-byte
    #: cutoff routes to malloc; our coarser objects use a larger bound).
    large_object_threshold: int = 128 * KIB
    #: Collect when dead bytes might exceed this (stand-in for the
    #: generation-count thresholds of CPython's cyclic GC).
    gc_threshold_bytes: int = 8 * MIB
    boot_seconds: float = 0.08
    native_boot_bytes: int = 5 * MIB
    native_init_bytes: int = 2 * MIB


class CPythonRuntime(ManagedRuntime):
    """Arena allocator plus a mark-sweep cycle collector."""

    language = "python"
    default_libraries = (
        LibrarySpec("/usr/lib/libpython3.so", 6 * MIB, touched_fraction=0.65),
        LibrarySpec("/usr/lib/python-stdlib.so", 12 * MIB, touched_fraction=0.3),
    )

    def __init__(self, name, config: CPythonConfig | None = None, **kwargs) -> None:
        super().__init__(name, config or CPythonConfig(), **kwargs)
        self._arenas: ChunkedSpace | None = None
        self._large: Dict[int, Mapping] = {}
        self._allocated_since_gc = 0
        self.gc_count = 0

    def _setup_heap(self) -> float:
        self._arenas = ChunkedSpace("arena", self.space)
        return 0.0

    # ------------------------------------------------------------ placement

    def _place(self, oid: int) -> None:
        cfg: CPythonConfig = self.config  # type: ignore[assignment]
        size = self.graph.objects[oid].size
        if self._allocated_since_gc >= cfg.gc_threshold_bytes:
            self.collect(full=True)
        if size >= cfg.large_object_threshold:
            self._place_large(oid, size)
            return
        if self._over_budget(size):
            self.collect(full=True)
            if self._over_budget(size):
                raise OutOfMemory(f"{self.name}: arenas over heap budget")
        chunk, offset, _new = self._arenas.allocate(oid, size)
        counts = self.space.touch(chunk.mapping.start + PAGE_SIZE + offset, size)
        self._charge_faults(counts.minor, counts.major)
        self._allocated_since_gc += size

    def _place_large(self, oid: int, size: int) -> None:
        if self._over_budget(size):
            self.collect(full=True)
            if self._over_budget(size):
                raise OutOfMemory(f"{self.name}: large allocation over budget")
        mapping = self.space.mmap(page_ceil(size), name="[malloc big]")
        counts = self.space.touch(mapping.start, size)
        self._charge_faults(counts.minor, counts.major)
        self._large[oid] = mapping
        self._allocated_since_gc += size

    def _supports_cohorts(self, unit: int) -> bool:
        cfg: CPythonConfig = self.config  # type: ignore[assignment]
        return unit < cfg.large_object_threshold

    def _alloc_cohort_fast(self, count: int, unit: int, scope: str) -> List[int]:
        """Place a run of small objects segment by segment.

        Each segment is the longest prefix that the scalar path would
        place with no intervening event: it must fit the chunk the bump
        allocator would pick, stay under the GC byte threshold, and not
        flip the budget check.  A member that *would* trigger one of
        those goes through :meth:`~ManagedRuntime.alloc` unbatched, so
        the collection it causes sees exactly the scalar path's graph
        (the triggering object allocated and rooted, earlier segments
        dead or live per their scope).
        """
        cfg: CPythonConfig = self.config  # type: ignore[assignment]
        oids: List[int] = []
        placed = 0
        while placed < count:
            if self._allocated_since_gc >= cfg.gc_threshold_bytes or self._over_budget(unit):
                oids.append(self.alloc(unit, scope=scope))
                placed += 1
                continue
            # Longest run before the next member would trip the GC-bytes
            # threshold check (member j's check reads allocated + j*unit).
            members = min(
                count - placed,
                1 + (cfg.gc_threshold_bytes - self._allocated_since_gc - 1) // unit,
            )
            chunk = self._arenas.first_fit(unit)
            if chunk is None:
                members = min(members, self._arenas.payload // unit)
                large = sum(m.length for m in self._large.values())
                if self._arenas.committed + self._arenas.chunk_size + large + unit > cfg.max_heap:
                    # Opening the chunk flips the budget check; only the
                    # opener goes in before the scalar flow re-collects.
                    members = 1
            else:
                members = min(members, chunk.free // unit)
            oid = self.graph.new_cohort(members, unit)

            def place(oid: int = oid, members: int = members) -> None:
                chunk, offset, _new = self._arenas.allocate(oid, members * unit)
                addr = chunk.mapping.start + PAGE_SIZE + offset
                self._touch_cohort_segment(addr, unit, members)
                self._allocated_since_gc += members * unit

            self._place_cohort_segment(oid, scope, place)
            oids.append(oid)
            placed += members
        return oids

    def _over_budget(self, incoming: int) -> bool:
        cfg: CPythonConfig = self.config  # type: ignore[assignment]
        large = sum(m.length for m in self._large.values())
        return self._arenas.committed + large + incoming > cfg.max_heap

    # ------------------------------------------------------------------- GC

    def collect(self, full: bool = True, aggressive: bool = False) -> float:
        """Mark-sweep (CPython has no young generation worth modelling here)."""
        self._check_booted()
        live = self.graph.reachable(include_weak=not aggressive)
        _count, collected = self.graph.sweep(live)
        live_sizes = {oid: obj.size for oid, obj in self.graph.objects.items()}
        self._arenas.sweep(live_sizes)
        for oid in [o for o in self._large if o not in self.graph.objects]:
            mapping = self._large.pop(oid)
            self.space.munmap(mapping.start, mapping.length)
        live_bytes = sum(live_sizes.values())
        seconds = self._parallel_pause(
            costs.trace_cost(live_bytes) + costs.sweep_cost(self._arenas.committed)
        )
        self._allocated_since_gc = 0
        self.gc_count += 1
        self._record_gc("full", seconds, collected, live_bytes)
        return seconds

    # -------------------------------------------------------------- reclaim

    def reclaim(self, aggressive: bool = False) -> ReclaimOutcome:
        """§7: collect, then release free pages inside live arenas."""
        uss_before = self.uss()
        gc_seconds = self.collect(full=True, aggressive=aggressive)
        live_sizes = {oid: obj.size for oid, obj in self.graph.objects.items()}
        released_pages = self._arenas.release_free_pages(live_sizes)
        discarded = released_pages * PAGE_SIZE
        uss_after = self.uss()
        return ReclaimOutcome(
            live_bytes=self.last_gc_live_bytes,
            released_bytes=max(discarded, uss_before - uss_after),
            cpu_seconds=gc_seconds + costs.release_cost(discarded),
            uss_before=uss_before,
            uss_after=uss_after,
            aggressive=aggressive,
        )

    # -------------------------------------------------------------- metrics

    def heap_stats(self) -> HeapStats:
        large = sum(m.length for m in self._large.values())
        return HeapStats(
            committed=self._arenas.committed + large,
            used=self._arenas.used + large,
            live_estimate=self.last_gc_live_bytes,
        )

    def _touch_live_heap(self) -> float:
        # Span per-object so reclaimed holes between live objects stay cold;
        # the base class coalesces the spans into bulk page-range touches.
        spans = []
        for chunk in self._arenas.chunks:
            base = chunk.mapping.start + PAGE_SIZE
            for oid, offset in chunk.objects:
                obj = self.graph.objects.get(oid)
                if obj is not None:
                    spans.append((base + offset, obj.size))
        for mapping in self._large.values():
            spans.append((mapping.start, mapping.length))
        return self._touch_object_spans(spans)

    def _heap_mappings(self) -> List[Mapping]:
        result = [chunk.mapping for chunk in self._arenas.chunks]
        result.extend(self._large.values())
        return result
