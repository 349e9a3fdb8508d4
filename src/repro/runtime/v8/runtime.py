"""The V8 runtime simulator.

Layout: two reserved semispace mappings (``from`` serves allocation, per the
paper's footnote), an old space of 256 KiB chunks, and a large-object space
of dedicated mappings.  Scavenges copy survivors between semispaces and
promote twice-surviving objects to old chunks; full collections mark-sweep
the old space without compaction and evacuate the young generation.

The §3.2.2 behaviours the characterization depends on live in
:class:`V8YoungPolicy` (doubling before GC, rate-gated shrinking after GC)
and :class:`ChunkedSpace` (unreleasable metadata pages, fragmentation).
JIT code units are weak-rooted heap objects, so aggressive collections
deoptimize (§4.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.mem.layout import KIB, MIB, PAGE_SIZE, Protection, page_ceil
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
from repro.runtime.hotspot.spaces import ContiguousSpace
from repro.runtime.jit import CodeCache
from repro.runtime.object_model import CohortObject
from repro.runtime.v8.chunks import CHUNK_PAYLOAD, ChunkedSpace
from repro.runtime.v8.policy import V8YoungPolicy


@dataclass
class V8Config(RuntimeConfig):
    """V8-specific knobs on top of the common runtime config."""

    young_policy: V8YoungPolicy = field(default_factory=V8YoungPolicy)
    #: Scavenges survived before promotion (V8 promotes on the second copy).
    tenure_threshold: int = 2
    #: Objects at or above this size go to the large-object space.
    large_object_threshold: int = 128 * KIB
    #: §5.2's noted improvement: compact the old space during reclaim
    #: (via the free list) so fragmented chunk pages can be released too.
    compact_on_reclaim: bool = False
    boot_seconds: float = 0.15
    native_boot_bytes: int = 8 * MIB
    native_init_bytes: int = 4 * MIB


class V8Runtime(ManagedRuntime):
    """Semispace scavenger + chunked mark-sweep old space."""

    language = "javascript"
    default_libraries = (
        LibrarySpec("/usr/bin/node", 74 * MIB, touched_fraction=0.28),
        LibrarySpec("/usr/lib/node-deps.so", 9 * MIB, touched_fraction=0.5),
    )

    def __init__(self, name, config: V8Config | None = None, **kwargs) -> None:
        super().__init__(name, config or V8Config(), **kwargs)
        self.jit = CodeCache(self, in_heap=True)
        self._from: ContiguousSpace | None = None
        self._to: ContiguousSpace | None = None
        self._semi_maps: Dict[str, Mapping] = {}
        self._old: ChunkedSpace | None = None
        self._large: Dict[int, Mapping] = {}
        self._young_alloc_since_full_gc = 0
        self._survived_since_expand = 0
        self._in_gc = False
        #: Old-space growth limit: a mark-sweep runs when the old space
        #: outgrows it (V8's heap-growing policy).  Reset after each full
        #: collection to a multiple of the live size.
        self._old_limit = 16 * MIB
        #: Cumulative bytes faulted in by old-space placement (promotion
        #: data pages); reclaim takes a delta across its GC to report how
        #: much of any USS growth is evacuation, not a leak.
        self._evac_fault_bytes = 0
        self.scavenge_count = 0
        self.full_gc_count = 0

    # ------------------------------------------------------------------ heap

    def _setup_heap(self) -> float:
        cfg: V8Config = self.config  # type: ignore[assignment]
        semi_max = cfg.young_policy.semi_max(cfg.max_heap)
        for label in ("semi-a", "semi-b"):
            self._semi_maps[label] = self.space.mmap(
                semi_max, prot=Protection.NONE, name=f"[v8 {label}]"
            )
        self._from = ContiguousSpace("semi-a", 0, semi_max)
        self._to = ContiguousSpace("semi-b", 0, semi_max)
        initial = min(page_ceil(2 * cfg.young_policy.semi_min), semi_max)
        for semi in (self._from, self._to):
            self._set_semi_committed(semi, initial)
        self._old = ChunkedSpace("old", self.space)
        return 0.0

    def _semi_base(self, semi: ContiguousSpace) -> int:
        return self._semi_maps[semi.name].start

    def _set_semi_committed(self, semi: ContiguousSpace, target: int) -> None:
        target = page_ceil(min(max(target, semi.top), semi.reserved))
        if target == semi.committed:
            return
        base = self._semi_base(semi)
        if target > semi.committed:
            self.space.commit(base + semi.committed, target - semi.committed)
        else:
            self.space.uncommit(base + target, semi.committed - target)
            semi.touched = min(semi.touched, target)
        semi.committed = target

    def _materialize_semi(self, semi: ContiguousSpace) -> None:
        if semi.top <= semi.touched:
            return
        counts = self.space.touch(
            self._semi_base(semi) + semi.touched, semi.top - semi.touched
        )
        self._charge_faults(counts.minor, counts.major)
        semi.touched = page_ceil(semi.top)

    # ------------------------------------------------------------ placement

    def _place(self, oid: int) -> None:
        cfg: V8Config = self.config  # type: ignore[assignment]
        size = self.graph.objects[oid].size
        if size >= cfg.large_object_threshold:
            self._place_large(oid, size)
            return
        if not self._from.fits(size):
            self.collect(full=False)
        while not self._from.fits(size) and self._from.committed < self._from.reserved:
            self._set_semi_committed(
                self._from,
                cfg.young_policy.expanded(self._from.committed, cfg.max_heap),
            )
            self._set_semi_committed(self._to, self._from.committed)
        if not self._from.fits(size):
            self._place_old(oid, size)
            return
        self._from.bump(oid, size)
        self._materialize_semi(self._from)
        self._young_alloc_since_full_gc += size

    def _supports_cohorts(self, unit: int) -> bool:
        cfg: V8Config = self.config  # type: ignore[assignment]
        return unit < cfg.large_object_threshold

    def _alloc_cohort_fast(self, count: int, unit: int, scope: str) -> List[int]:
        """Bump whole runs into from-space; see the HotSpot twin for the
        scheme.  The member that does not fit goes through
        :meth:`~ManagedRuntime.alloc`, which scavenges, expands the
        semispaces, or places it in old space exactly as the scalar path
        does."""
        oids: List[int] = []
        placed = 0
        while placed < count:
            semi = self._from
            members = min(count - placed, semi.free // unit)
            if not members:
                oids.append(self.alloc(unit, scope=scope))
                placed += 1
                continue
            oid = self.graph.new_cohort(members, unit)

            def place(oid: int = oid, members: int = members) -> None:
                base = self._semi_base(semi)
                addr = base + semi.top
                semi.bump(oid, members * unit)
                self._touch_cohort_segment(addr, unit, members, base + semi.touched)
                semi.touched = max(semi.touched, page_ceil(semi.top))
                self._young_alloc_since_full_gc += members * unit

            self._place_cohort_segment(oid, scope, place)
            oids.append(oid)
            placed += members
        return oids

    def _place_old(
        self, oid: int, size: int, live: Optional[Set[int]] = None
    ) -> None:
        # Promotions during a collection must not re-enter the collector.
        # (Cohorts only arrive here from a collection or compaction.)
        if not self._in_gc and self._heap_over_budget(size):
            self.collect(full=True)
            if self._heap_over_budget(size):
                raise OutOfMemory(f"{self.name}: old space over heap budget")
        obj = self.graph.objects[oid]
        while isinstance(obj, CohortObject):
            # Cut the run where its members would fill the chunk they
            # land in; the tail continues in the next chunk.
            chunk = self._old.first_fit(obj.unit)
            room = self._old.payload if chunk is None else chunk.free
            tail = self._split_cohort_to_fit(oid, room, live)
            chunk, offset, _new = self._old.allocate(oid, obj.size)
            counts = self._touch_cohort_segment(
                chunk.mapping.start + PAGE_SIZE + offset, obj.unit, obj.count
            )
            self._evac_fault_bytes += (counts.minor + counts.major) * PAGE_SIZE
            if tail is None:
                return
            oid, obj = tail, self.graph.objects[tail]
        chunk, offset, _new = self._old.allocate(oid, size)
        counts = self.space.touch(chunk.mapping.start + PAGE_SIZE + offset, size)
        self._evac_fault_bytes += (counts.minor + counts.major) * PAGE_SIZE
        self._charge_faults(counts.minor, counts.major)

    def _place_large(self, oid: int, size: int) -> None:
        if self._heap_over_budget(size):
            self.collect(full=True)
            if self._heap_over_budget(size):
                raise OutOfMemory(f"{self.name}: large-object space over budget")
        mapping = self.space.mmap(page_ceil(size), name="[v8 large]")
        counts = self.space.touch(mapping.start, size)
        self._charge_faults(counts.minor, counts.major)
        self._large[oid] = mapping

    def _heap_over_budget(self, incoming: int) -> bool:
        cfg: V8Config = self.config  # type: ignore[assignment]
        return self._committed_heap() + incoming > cfg.max_heap

    def _committed_heap(self) -> int:
        large = sum(m.length for m in self._large.values())
        return self._from.committed + self._to.committed + self._old.committed + large

    # ------------------------------------------------------------------- GC

    def collect(self, full: bool, aggressive: bool = False) -> float:
        """Scavenge (``full=False``) or mark-sweep the whole heap."""
        self._check_booted()
        if full:
            return self._full_gc(aggressive)
        return self._scavenge()

    def _scavenge(self) -> float:
        cfg: V8Config = self.config  # type: ignore[assignment]
        policy = cfg.young_policy
        self._in_gc = True
        # Pre-GC expansion (§3.2.2): survived bytes accumulated past the
        # current semispace size double the young generation.
        if policy.should_expand(self._survived_since_expand, self._from.committed):
            target = policy.expanded(self._from.committed, cfg.max_heap)
            self._set_semi_committed(self._from, target)
            self._set_semi_committed(self._to, target)
            self._survived_since_expand = 0

        live = self.graph.reachable(include_weak=True)
        young = list(self._from.objects)
        self._to.reset()
        copied = 0
        promoted = 0
        collected = 0
        for oid in young:
            if oid not in live:
                collected += self.graph.objects[oid].size
                del self.graph.objects[oid]
                continue
            obj = self.graph.objects[oid]
            obj.age += 1
            if obj.age < cfg.tenure_threshold:
                tail = self._split_cohort_to_fit(oid, self._to.free, live)
                if tail is not None:
                    # The leading members fill ``to``; the rest overflow.
                    self._to.bump(oid, obj.size)
                    copied += obj.size
                    oid, obj = tail, self.graph.objects[tail]
            if obj.age >= cfg.tenure_threshold or not self._to.fits(obj.size):
                size = obj.size  # read before placement may split it
                self._place_old(oid, size, live)
                promoted += size
            else:
                self._to.bump(oid, obj.size)
                copied += obj.size
        self._materialize_semi(self._to)
        self._from.reset()
        self._from, self._to = self._to, self._from
        self._survived_since_expand += copied + promoted

        total_live = sum(
            self.graph.objects[oid].size for oid in live if oid in self.graph.objects
        )
        seconds = self._parallel_pause(
            costs.trace_cost(copied + promoted) + costs.copy_cost(copied + promoted)
        )
        self._in_gc = False
        self.scavenge_count += 1
        self._record_gc("young", seconds, collected, total_live)
        # Heap-growing policy: promotions that push the old space past its
        # limit schedule a mark-sweep.
        old_footprint = self._old.committed + sum(
            m.length for m in self._large.values()
        )
        if old_footprint > self._old_limit:
            seconds += self._full_gc(aggressive=False)
        return seconds

    def _full_gc(self, aggressive: bool) -> float:
        cfg: V8Config = self.config  # type: ignore[assignment]
        self._in_gc = True
        live = self.graph.reachable(include_weak=not aggressive)
        _count, collected = self.graph.sweep(live)

        # Evacuate the young generation: survivors promote to old chunks.
        promoted = 0
        for oid in list(self._from.objects) + list(self._to.objects):
            if oid in self.graph.objects:
                size = self.graph.objects[oid].size
                self._place_old(oid, size)
                promoted += size
        self._from.reset()
        self._to.reset()

        # Sweep the old space (frees empty chunks) and the large objects.
        live_sizes = {oid: obj.size for oid, obj in self.graph.objects.items()}
        self._old.sweep(live_sizes)
        for oid in [o for o in self._large if o not in self.graph.objects]:
            mapping = self._large.pop(oid)
            self.space.munmap(mapping.start, mapping.length)

        live_bytes = sum(live_sizes.values())
        seconds = self._parallel_pause(
            costs.trace_cost(live_bytes)
            + costs.sweep_cost(self._old.committed)
            + costs.copy_cost(promoted)
        )

        # Post-GC resize: shrink only when the allocation rate is low.
        if cfg.young_policy.should_shrink(self._young_alloc_since_full_gc):
            target = cfg.young_policy.shrunk(promoted)
            self._set_semi_committed(self._from, target)
            self._set_semi_committed(self._to, target)
            # V8 releases the from-space free region on shrink (§4.4 notes
            # from space and old generation release automatically).
            free_begin = page_ceil(self._from.top)
            if self._from.committed > free_begin:
                self.space.discard(
                    self._semi_base(self._from) + free_begin,
                    self._from.committed - free_begin,
                )
                self._from.touched = min(self._from.touched, free_begin)
        self._young_alloc_since_full_gc = 0
        self._old_limit = max(16 * MIB, int(1.7 * live_bytes))

        self._in_gc = False
        self.full_gc_count += 1
        self._record_gc("full", seconds, collected, live_bytes)
        return seconds

    # -------------------------------------------------------------- reclaim

    def reclaim(self, aggressive: bool = False) -> ReclaimOutcome:
        """``global.reclaim`` (§4.4): GC, let the resize policy shrink (the
        instance is frozen, so the allocation rate is zero), then release
        the remaining free pages -- the to space, and free pages inside
        partially-occupied old chunks."""
        cfg: V8Config = self.config  # type: ignore[assignment]
        uss_before = self.uss()
        self._young_alloc_since_full_gc = 0  # frozen: no recent allocation
        evac_base = self._evac_fault_bytes
        chunks_base = self._old.total_chunks_allocated
        gc_seconds = self._full_gc(aggressive)
        if cfg.compact_on_reclaim:
            gc_seconds += self._compact_old()
        # Evacuating young survivors into the old space materializes fresh
        # pages (the promoted data plus each new chunk's metadata page)
        # while the vacated semispace pages are released below -- so the
        # reclaim can legitimately end slightly above its starting USS.
        evacuated_bytes = (
            self._evac_fault_bytes
            - evac_base
            + (self._old.total_chunks_allocated - chunks_base) * PAGE_SIZE
        )

        released_pages = 0
        # The to space is unused until the next scavenge: release it all.
        if self._to.committed > 0:
            released_pages += self.space.discard(
                self._semi_base(self._to), self._to.committed
            )
            self._to.touched = 0
        # From-space free region (beyond any survivors).
        free_begin = page_ceil(self._from.top)
        if self._from.committed > free_begin:
            released_pages += self.space.discard(
                self._semi_base(self._from) + free_begin,
                self._from.committed - free_begin,
            )
            self._from.touched = min(self._from.touched, free_begin)
        # Fragmented free pages inside live old chunks (metadata pages stay).
        live_sizes = {oid: obj.size for oid, obj in self.graph.objects.items()}
        released_pages += self._old.release_free_pages(live_sizes)

        discarded = released_pages * PAGE_SIZE
        seconds = gc_seconds + costs.release_cost(discarded)
        uss_after = self.uss()
        return ReclaimOutcome(
            live_bytes=self.last_gc_live_bytes,
            # Most of V8's release happens through the shrink's uncommit
            # and freed chunks' munmap, not the explicit discards, so
            # report the end-to-end delta.
            released_bytes=max(discarded, uss_before - uss_after),
            cpu_seconds=seconds,
            uss_before=uss_before,
            uss_after=uss_after,
            aggressive=aggressive,
            evacuated_bytes=evacuated_bytes,
        )

    def _compact_old(self) -> float:
        """Repack old-space survivors densely into fresh chunks.

        The paper notes Desiccant's JS gap to the ideal comes from
        fragmented free memory the mark-sweep leaves inside chunks, and
        that integrating with V8's free list would eliminate it; this is
        that integration, modelled as a relocating pass.
        """
        movers = [
            (oid, self.graph.objects[oid].size)
            for chunk in self._old.chunks
            for oid, _off in chunk.objects
            if oid in self.graph.objects
        ]
        for chunk in list(self._old.chunks):
            self.space.munmap(chunk.mapping.start, chunk.mapping.length)
        self._old.chunks.clear()
        self._in_gc = True  # part of the collection: no budget re-entry
        for oid, size in movers:
            self._place_old(oid, size)
        self._in_gc = False
        return costs.copy_cost(sum(size for _oid, size in movers))

    # -------------------------------------------------------------- metrics

    def heap_stats(self) -> HeapStats:
        """Committed/used/live-estimate snapshot."""
        self._memo_materialize()
        used = (
            self._from.top
            + self._old.used
            + sum(m.length for m in self._large.values())
        )
        return HeapStats(
            committed=self._committed_heap(),
            used=used,
            live_estimate=self.last_gc_live_bytes,
        )

    def _touch_live_heap(self) -> float:
        seconds = 0.0
        if self._from.top > 0:
            counts = self.space.touch(self._semi_base(self._from), self._from.top)
            seconds += self._charge_faults(counts.minor, counts.major)
        # Span per-object, not per-chunk: a freshly-reclaimed chunk has
        # released holes between live objects that the mutator never reads.
        spans = []
        for chunk in self._old.chunks:
            base = chunk.mapping.start + PAGE_SIZE
            for oid, offset in chunk.objects:
                obj = self.graph.objects.get(oid)
                if obj is not None:
                    spans.append((base + offset, obj.size))
        for mapping in self._large.values():
            spans.append((mapping.start, mapping.length))
        return seconds + self._touch_object_spans(spans)

    def _heap_mappings(self) -> List[Mapping]:
        result: List[Mapping] = []
        for semi_map in self._semi_maps.values():
            start, end = semi_map.start, semi_map.start + self._from.reserved
            result.extend(
                m for m in self.space.mappings() if m.start < end and m.end > start
            )
        for chunk in self._old.chunks:
            result.append(chunk.mapping)
        result.extend(self._large.values())
        return result
