"""The Go runtime simulator, per the paper's §7 discussion.

Go's heap lives in a few contiguous arenas; the pacer triggers a
mark-sweep when the heap reaches ``(1 + GOGC/100)`` times the live size of
the previous cycle.  Crucially, swept memory is *not* returned to the OS:
the background scavenger hands free pages back gradually (minutes of
retention) -- and the scavenger is a goroutine, so a frozen instance never
runs it.  That is exactly the frozen-garbage shape again, and §7's recipe
applies: Desiccant runs the collector, then uses the runtime's span
structures to find free regions and releases them immediately.
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
from repro.runtime.v8.chunks import ChunkedSpace

#: Modelled arena granularity (real Go uses 64 MiB arenas carved into 8 KiB
#: spans; 4 MiB keeps the free-page math meaningful at FaaS scale).
ARENA_SIZE = 4 * MIB


@dataclass
class GoConfig(RuntimeConfig):
    """Go-specific knobs."""

    #: The GOGC pacing knob: collect when heap = live * (1 + gogc/100).
    gogc: int = 100
    #: Smallest heap that triggers the pacer (Go's 4 MiB minimum).
    min_trigger: int = 4 * MIB
    #: Background-scavenger retention: free memory younger than this stays
    #: resident (and the scavenger never runs while frozen anyway).
    scavenger_retention_seconds: float = 300.0
    large_object_threshold: int = 512 * KIB
    boot_seconds: float = 0.04  # static binaries start fast
    native_boot_bytes: int = 4 * MIB
    native_init_bytes: int = 1 * MIB


class GoRuntime(ManagedRuntime):
    """Arena allocator + GOGC-paced mark-sweep, no eager release."""

    language = "go"
    default_libraries = (
        # Statically linked: one binary image holds runtime and function.
        LibrarySpec("/var/task/handler-go", 16 * MIB, touched_fraction=0.5),
    )

    def __init__(self, name, config: GoConfig | None = None, **kwargs) -> None:
        super().__init__(name, config or GoConfig(), **kwargs)
        self._arenas: ChunkedSpace | None = None
        self._large: Dict[int, Mapping] = {}
        self._next_gc = 0
        self.gc_count = 0

    def _setup_heap(self) -> float:
        cfg: GoConfig = self.config  # type: ignore[assignment]
        self._arenas = ChunkedSpace(
            "go-arena",
            self.space,
            chunk_size=ARENA_SIZE,
            unmap_empty_on_sweep=False,  # the sweeper keeps spans for reuse
        )
        self._next_gc = cfg.min_trigger
        return 0.0

    # ------------------------------------------------------------ placement

    def _place(self, oid: int) -> None:
        cfg: GoConfig = self.config  # type: ignore[assignment]
        size = self.graph.objects[oid].size
        if self._heap_used() + size >= self._next_gc:
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

    def _place_large(self, oid: int, size: int) -> None:
        if self._over_budget(size):
            self.collect(full=True)
            if self._over_budget(size):
                raise OutOfMemory(f"{self.name}: large allocation over budget")
        mapping = self.space.mmap(page_ceil(size), name="[go large]")
        counts = self.space.touch(mapping.start, size)
        self._charge_faults(counts.minor, counts.major)
        self._large[oid] = mapping

    def _supports_cohorts(self, unit: int) -> bool:
        cfg: GoConfig = self.config  # type: ignore[assignment]
        return unit < cfg.large_object_threshold

    def _alloc_cohort_fast(self, count: int, unit: int, scope: str) -> List[int]:
        """Segment-wise bulk placement; see the CPython twin for the
        scheme.  The difference is the trigger: Go's pacer compares
        ``heap_used + size`` against the GOGC target before every
        placement, and heap_used grows with each member, so the segment
        bound solves ``used + m * unit < next_gc`` instead of reading a
        since-last-GC counter."""
        cfg: GoConfig = self.config  # type: ignore[assignment]
        oids: List[int] = []
        placed = 0
        while placed < count:
            if self._heap_used() + unit >= self._next_gc or self._over_budget(unit):
                oids.append(self.alloc(unit, scope=scope))
                placed += 1
                continue
            members = min(
                count - placed,
                (self._next_gc - self._heap_used() - 1) // unit,
            )
            chunk = self._arenas.first_fit(unit)
            if chunk is None:
                members = min(members, self._arenas.payload // unit)
                large = sum(m.length for m in self._large.values())
                if self._arenas.committed + self._arenas.chunk_size + large + unit > cfg.max_heap:
                    members = 1
            else:
                members = min(members, chunk.free // unit)
            oid = self.graph.new_cohort(members, unit)

            def place(oid: int = oid, members: int = members) -> None:
                chunk, offset, _new = self._arenas.allocate(oid, members * unit)
                addr = chunk.mapping.start + PAGE_SIZE + offset
                self._touch_cohort_segment(addr, unit, members)

            self._place_cohort_segment(oid, scope, place)
            oids.append(oid)
            placed += members
        return oids

    def _heap_used(self) -> int:
        return self._arenas.used + sum(m.length for m in self._large.values())

    def _over_budget(self, incoming: int) -> bool:
        cfg: GoConfig = self.config  # type: ignore[assignment]
        large = sum(m.length for m in self._large.values())
        return self._arenas.committed + large + incoming > cfg.max_heap

    # ------------------------------------------------------------------- GC

    def collect(self, full: bool = True, aggressive: bool = False) -> float:
        """GOGC-paced mark-sweep; swept arenas stay resident for reuse."""
        self._check_booted()
        cfg: GoConfig = self.config  # type: ignore[assignment]
        live = self.graph.reachable(include_weak=not aggressive)
        _count, collected = self.graph.sweep(live)
        live_sizes = {oid: obj.size for oid, obj in self.graph.objects.items()}
        self._arenas.sweep(live_sizes)  # keeps emptied arenas mapped
        for oid in [o for o in self._large if o not in self.graph.objects]:
            mapping = self._large.pop(oid)
            self.space.munmap(mapping.start, mapping.length)
        live_bytes = sum(live_sizes.values())
        self._next_gc = max(
            cfg.min_trigger, int(live_bytes * (1 + cfg.gogc / 100.0))
        )
        seconds = self._parallel_pause(
            costs.trace_cost(live_bytes) + costs.sweep_cost(self._arenas.committed)
        )
        self.gc_count += 1
        self._record_gc("full", seconds, collected, live_bytes)
        return seconds

    def scavenge(self, idle_seconds: float) -> int:
        """The background scavenger: release free pages only after the
        retention period -- i.e. effectively never for a frozen instance.
        Returns pages released."""
        cfg: GoConfig = self.config  # type: ignore[assignment]
        if idle_seconds < cfg.scavenger_retention_seconds:
            return 0
        self._memo_materialize()
        live_sizes = {oid: obj.size for oid, obj in self.graph.objects.items()}
        return self._arenas.release_free_pages(live_sizes)

    # -------------------------------------------------------------- reclaim

    def reclaim(self, aggressive: bool = False) -> ReclaimOutcome:
        """§7: collect, then do the scavenger's job immediately -- release
        every free arena page back to the OS."""
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
        """Committed/used/live-estimate snapshot."""
        self._memo_materialize()
        large = sum(m.length for m in self._large.values())
        return HeapStats(
            committed=self._arenas.committed + large,
            used=self._arenas.used + large,
            live_estimate=self.last_gc_live_bytes,
        )

    def _touch_live_heap(self) -> float:
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
