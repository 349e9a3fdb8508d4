"""The arena runtimes of §7: CPython and Go.

Both allocators carve small objects out of arenas -- a
:class:`ChunkedSpace` whose reserved first page stands in for the arena
header -- give every large object a mapping of its own, and collect by a
mark-sweep that moves nothing.  So free memory stays stranded inside
arenas across a freeze: the frozen-garbage shape of the other runtimes,
without generations.  §7's recipe applies unchanged: run the collector,
then use the allocator's own structures to find the free pages and
release them (:meth:`ManagedRuntime.reclaim`).

A subclass names its arenas and says when a collection triggers
(:meth:`ArenaRuntime._gc_headroom`).
"""

from __future__ import annotations

import abc
from typing import List

from repro.mem.layout import CHUNK_SIZE, PAGE_SIZE
from repro.mem.vmm import Mapping
from repro.runtime import costs
from repro.runtime.base import HeapStats, ManagedRuntime, OutOfMemory
from repro.runtime.v8.chunks import ChunkedSpace, LargeObjectSpace


class ArenaRuntime(ManagedRuntime):
    """Arena allocator plus a non-moving mark-sweep collector.

    Its config has a ``large_object_threshold``: objects of that size or
    more bypass the arenas.
    """

    #: Name of the arena space (its chunks map as ``[<name> chunk]``).
    arena_name = "arena"
    #: Name of every large object's mapping.
    large_name = "[large]"
    arena_size = CHUNK_SIZE
    #: Whether a sweep unmaps an emptied arena or keeps it resident for
    #: reuse (see :class:`ChunkedSpace`).
    unmap_empty_arenas = True

    def __init__(self, name, config, **kwargs) -> None:
        super().__init__(name, config, **kwargs)
        self._arenas = ChunkedSpace(
            self.arena_name,
            self.space,
            chunk_size=self.arena_size,
            unmap_empty_on_sweep=self.unmap_empty_arenas,
        )
        self._large = LargeObjectSpace(self.large_name, self.space)
        #: Bytes placed since the last collection.
        self._allocated_since_gc = 0
        self.gc_count = 0

    def _setup_heap(self) -> float:
        return 0.0

    @abc.abstractmethod
    def _gc_headroom(self, size: int) -> int:
        """Bytes left before placing ``size`` more triggers a collection;
        zero or less triggers it."""

    # ------------------------------------------------------------ placement

    def _place(self, oid: int) -> None:
        size = self.graph.objects[oid].size
        if self._gc_headroom(size) <= 0:
            self.collect(full=True)
        if self._over_budget(size):
            self.collect(full=True)
            if self._over_budget(size):
                raise OutOfMemory(f"{self.name}: {size} bytes over heap budget")
        if size >= self.config.large_object_threshold:
            counts = self._large.place(oid, size)
        else:
            chunk, offset, _new = self._arenas.allocate(oid, size)
            counts = self.space.touch(chunk.mapping.start + PAGE_SIZE + offset, size)
        self._charge_faults(counts.minor, counts.major)
        self._allocated_since_gc += size

    def _supports_cohorts(self, unit: int) -> bool:
        return unit < self.config.large_object_threshold

    def _alloc_cohort_fast(self, count: int, unit: int, scope: str) -> List[int]:
        """Place a run of small objects segment by segment.

        Each segment is the longest prefix that the scalar path would
        place with no intervening event: it must fit the chunk the bump
        allocator would pick, stay inside the collection headroom, and not
        flip the budget check.  A member that *would* trigger one of
        those goes through :meth:`~ManagedRuntime.alloc` unbatched, so
        the collection it causes sees exactly the scalar path's graph
        (the triggering object allocated and rooted, earlier segments
        dead or live per their scope).
        """
        oids: List[int] = []
        placed = 0
        while placed < count:
            headroom = self._gc_headroom(unit)
            if headroom <= 0 or self._over_budget(unit):
                oids.append(self.alloc(unit, scope=scope))
                placed += 1
                continue
            # Member j's trigger check reads the headroom less j units.
            members = min(count - placed, 1 + (headroom - 1) // unit)
            chunk = self._arenas.first_fit(unit)
            if chunk is None:
                members = min(members, self._arenas.payload // unit)
                if self._over_budget(self._arenas.chunk_size + unit):
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
        committed = self._arenas.committed + self._large.committed
        return committed + incoming > self.config.max_heap

    def _heap_used(self) -> int:
        return self._arenas.used + self._large.committed

    # ------------------------------------------------------------------- GC

    def collect(self, full: bool = True, aggressive: bool = False) -> float:
        """Mark-sweep: there is no young generation worth modelling."""
        self._check_booted()
        return self._full_gc(aggressive)

    def _full_gc(self, aggressive: bool) -> float:
        live = self.graph.reachable(include_weak=not aggressive)
        _count, collected = self.graph.sweep(live)
        live_sizes = {oid: obj.size for oid, obj in self.graph.objects.items()}
        self._arenas.sweep(live_sizes)
        self._large.sweep(live_sizes)
        live_bytes = sum(live_sizes.values())
        seconds = self._parallel_pause(
            costs.trace_cost(live_bytes) + costs.sweep_cost(self._arenas.committed)
        )
        self._allocated_since_gc = 0
        self.gc_count += 1
        self._record_gc("full", seconds, collected, live_bytes)
        return seconds

    def _release_free_pages(self) -> int:
        """The arena pages no live object covers (headers stay)."""
        live_sizes = {oid: obj.size for oid, obj in self.graph.objects.items()}
        return self._arenas.release_free_pages(live_sizes)

    # -------------------------------------------------------------- metrics

    def heap_stats(self) -> HeapStats:
        return HeapStats(
            committed=self._arenas.committed + self._large.committed,
            used=self._heap_used(),
            live_estimate=self.last_gc_live_bytes,
        )

    def _touch_live_heap(self) -> float:
        # Span per object so reclaimed holes between live objects stay
        # cold; the base class coalesces the spans into bulk touches.
        spans = list(self._arenas.spans(self.graph.objects))
        spans.extend(self._large.spans())
        return self._touch_object_spans(spans)

    def _heap_mappings(self) -> List[Mapping]:
        return [chunk.mapping for chunk in self._arenas.chunks] + self._large.mappings()
