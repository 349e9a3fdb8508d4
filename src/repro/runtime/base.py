"""Common interface and shared machinery for the runtime simulators.

A :class:`ManagedRuntime` owns one :class:`VirtualAddressSpace` (the FaaS
instance's container process) and exposes:

* the **mutator API** used by workload models (``begin_invocation`` /
  ``alloc`` / ``end_invocation``),
* the **GC entry points** (``collect`` and the ``System.gc()``-style
  ``full_gc``),
* the **reclaim interface** Desiccant adds (§4.4): GC, then resize, then
  release every free page back to the OS.

Time is explicit: every operation returns or accumulates CPU seconds so the
FaaS simulator can charge latency and cgroup CPU time.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.mem.accounting import resident_bytes, uss_bytes
from repro.mem.layout import (
    MIB,
    PAGE_SHIFT,
    PAGE_SIZE,
    PROT_RX,
    Protection,
    page_ceil,
    page_floor,
)
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.mem.vmm import FaultCounts, Mapping, VirtualAddressSpace
from repro.runtime import costs
from repro.runtime.object_model import CohortObject, ObjectGraph

if TYPE_CHECKING:
    from repro.runtime.hotspot.spaces import ContiguousSpace


class OutOfMemory(Exception):
    """The heap cannot satisfy an allocation even after collection."""


@dataclass(frozen=True)
class LibrarySpec:
    """A shared library the runtime maps at boot (e.g. ``libjvm.so``).

    ``touched_fraction`` is how much of the file the runtime actually pages
    in; the rest never costs physical memory.
    """

    path: str
    size: int
    touched_fraction: float = 0.8


@dataclass
class RuntimeConfig:
    """Knobs common to every runtime simulator."""

    #: Instance memory budget (the paper's default is 256 MiB).
    memory_budget: int = 256 * MIB
    #: Fraction of the budget handed to the managed heap (Lambda-style).
    heap_fraction: float = 0.8
    #: Private native memory the runtime dirties at boot (malloc, stacks...).
    native_boot_bytes: int = 6 * MIB
    #: Extra native memory dirtied during the first invocation (class
    #: loading, JIT) -- the paper notes Java's first run inflates the heap.
    native_init_bytes: int = 4 * MIB
    #: Libraries mapped at boot; ``None`` uses the runtime's defaults.
    libraries: Optional[Sequence[LibrarySpec]] = None
    #: Process boot latency before the runtime is usable (cold-boot cost).
    boot_seconds: float = 0.2
    #: GC worker threads (§5.4: platforms should configure parallel
    #: collection for instances with abundant CPU).  Pauses shrink almost
    #: linearly; total CPU work stays the same plus a small coordination
    #: overhead.
    gc_threads: int = 1

    @property
    def max_heap(self) -> int:
        """Managed-heap ceiling derived from the instance budget."""
        return int(self.memory_budget * self.heap_fraction)


@dataclass
class HeapStats:
    """A snapshot of heap occupancy, in bytes."""

    committed: int
    used: int
    live_estimate: int


@dataclass
class ReclaimOutcome:
    """What one §4.4 reclamation achieved (becomes the memory profile)."""

    live_bytes: int
    released_bytes: int
    cpu_seconds: float
    uss_before: int
    uss_after: int
    aggressive: bool = False
    #: Bytes of fresh pages the reclaim's GC faulted in while evacuating
    #: survivors (promotions into newly materialized old-space pages,
    #: including unreleasable chunk/region header pages).  The vacated
    #: young pages are released separately, so a reclaim may end up to
    #: this much *above* its starting USS without having leaked anything.
    evacuated_bytes: int = 0


class ManagedRuntime(abc.ABC):
    """Base class wiring the object graph, libraries, and native memory."""

    #: Subclasses set these.
    language: str = "?"
    default_libraries: Sequence[LibrarySpec] = ()

    def __init__(
        self,
        name: str,
        config: RuntimeConfig,
        physical: Optional[PhysicalMemory] = None,
        shared_files: Optional[Dict[str, MappedFile]] = None,
    ) -> None:
        """``shared_files`` maps library paths to machine-wide MappedFiles;
        when provided, instances share page cache (OpenWhisk).  When absent,
        each instance gets private copies (Lambda, Figure 11)."""
        from repro.runtime.jit import CodeCache  # local import: avoids cycle

        self.name = name
        self.config = config
        self.space = VirtualAddressSpace(name, physical)
        self.graph = ObjectGraph()
        #: JIT code cache; subclasses with in-heap code (V8) override.
        self.jit = CodeCache(self, in_heap=False)
        self._shared_files = shared_files
        self._lib_mappings: List[Mapping] = []
        self._mapped_specs: List[LibrarySpec] = []
        self._native: Optional[Mapping] = None
        self._native_touched = 0
        self.booted = False
        self.invocations = 0
        self.total_gc_seconds = 0.0
        self.invocation_gc_seconds = 0.0
        self.invocation_fault_seconds = 0.0
        self.last_gc_live_bytes = 0
        #: ``space.release_epoch`` as of the last full :meth:`touch_live_data`
        #: walk; ``None`` until the first walk completes.
        self._live_touch_epoch: Optional[int] = None
        #: Measurement caches: ``(key, value)`` pairs keyed on the space's
        #: change counters, so repeated USS reads between mutations are
        #: O(1) instead of O(mappings).
        self._uss_cache: Optional[Tuple[Tuple[int, int], int]] = None
        self._hrb_cache: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ boot

    def boot(self) -> float:
        """Map libraries, dirty boot-time native memory, set up the heap.

        Returns the CPU seconds the boot consumed.
        """
        if self.booted:
            raise RuntimeError(f"{self.name}: already booted")
        seconds = self.config.boot_seconds
        libs = self.config.libraries
        if libs is None:
            libs = self.default_libraries
        for spec in libs:
            seconds += self._map_library(spec)
        native_reserve = max(self.config.memory_budget // 2, 16 * MIB)
        self._native = self.space.mmap(native_reserve, name="[native]")
        seconds += self._grow_native(self.config.native_boot_bytes)
        seconds += self._setup_heap()
        self.booted = True
        return seconds

    def _map_library(self, spec: LibrarySpec) -> float:
        if self._shared_files is not None:
            file = self._shared_files.get(spec.path)
            if file is None:
                file = MappedFile(spec.path, spec.size)
                self._shared_files[spec.path] = file
        else:
            # Private copy: a distinct file object per instance, so no
            # cross-instance page-cache sharing happens (the Lambda case).
            file = MappedFile(f"{spec.path}#{self.name}", spec.size)
        mapping = self.space.mmap(
            spec.size, prot=PROT_RX, file=file, name=spec.path
        )
        self._lib_mappings.append(mapping)
        self._mapped_specs.append(spec)
        touched = int(spec.size * spec.touched_fraction)
        counts = self.space.touch(mapping.start, touched, write=False)
        return costs.fault_cost(counts.minor, counts.major)

    def _grow_native(self, extra: int) -> float:
        assert self._native is not None
        start = self._native.start + self._native_touched
        extra = min(extra, self._native.length - self._native_touched)
        if extra <= 0:
            return 0.0
        counts = self.space.touch(start, extra)
        self._native_touched += extra
        return costs.fault_cost(counts.minor, counts.major)

    @abc.abstractmethod
    def _setup_heap(self) -> float:
        """Reserve and commit the initial heap; returns CPU seconds."""

    # ------------------------------------------------------------- mutators

    def begin_invocation(self) -> None:
        """Open an invocation frame; resets the per-invocation meters."""
        self._check_booted()
        self.graph.push_frame()
        self.invocation_gc_seconds = 0.0
        self.invocation_fault_seconds = 0.0
        if self.invocations == 0:
            self.invocation_fault_seconds += self._grow_native(
                self.config.native_init_bytes
            )

    def end_invocation(self) -> None:
        """Close the frame: its temporaries become (frozen) garbage."""
        self.graph.pop_frame()
        self.invocations += 1

    def alloc(self, size: int, scope: str = "frame") -> int:
        """Allocate an object and root it per ``scope``.

        * ``"ephemeral"``  -- unrooted; dead at the next collection.
        * ``"frame"``      -- lives until the invocation ends (the default).
        * ``"persistent"`` -- cached state, lives across invocations.
        * ``"weak"``       -- held only by a weak root (JIT artifacts).
        """
        self._check_booted()
        oid = self.graph.new_object(size)
        self._root(oid, scope)
        if scope == "ephemeral":
            # The allocation site references the object until placement
            # finishes, so a collection triggered by this very allocation
            # must not sweep it out from under the allocator.
            self.graph.root_persistent(oid)
            try:
                self._place(oid)
            finally:
                self.graph.unroot_persistent(oid)
        else:
            self._place(oid)
        return oid

    def _root(self, oid: int, scope: str) -> None:
        """Root ``oid`` per :meth:`alloc`'s ``scope`` (ephemerals stay
        unrooted)."""
        if scope == "frame":
            self.graph.root_in_frame(oid)
        elif scope == "persistent":
            self.graph.root_persistent(oid)
        elif scope == "weak":
            self.graph.root_weak(oid)
        elif scope != "ephemeral":
            raise ValueError(f"unknown scope {scope!r}")

    def alloc_cohort(
        self, count: int, unit: int, scope: str = "frame"
    ) -> List[int]:
        """Allocate ``count`` objects of ``unit`` bytes, rooted per ``scope``.

        Semantically identical to calling :meth:`alloc` ``count`` times --
        and that is literally what happens for a single object or when the
        runtime cannot batch this unit size.  Otherwise the run is folded
        into :class:`~repro.runtime.object_model.CohortObject` segments
        placed with one graph node and one bulk page touch per segment,
        while GC trigger points, collected volumes, and the per-member
        fault-cost accumulation order are preserved exactly: the result
        is byte-identical to the scalar loop, which ``tests/oracles.py``
        keeps as the reference.  HotSpot and V8 place the run as a
        one-run :meth:`alloc_stream`; the arena runtimes
        (:class:`~repro.runtime.arena.ArenaRuntime`) cut it into arena
        segments.

        Returns the allocated object ids (segment ids for batched runs).
        A moving collector may later split a segment where its members
        part ways (:meth:`ObjectGraph.split_cohort`); the returned id then
        names the leading members only.
        """
        self._check_booted()
        if count <= 0:
            return []
        if count == 1 or not self._supports_cohorts(unit):
            return [self.alloc(unit, scope=scope) for _ in range(count)]
        return self._alloc_cohort_fast(count, unit, scope)

    def alloc_stream(self, runs: Sequence[Tuple[str, int, int]]) -> None:
        """Allocate an invocation's ``(scope, unit, count)`` runs in
        mutator order.

        Semantically identical to sending every member, in stream order,
        through :meth:`alloc` (the scalar loop ``tests/oracles.py`` keeps
        as the reference).  A runtime that bump-allocates into one space
        (HotSpot eden, V8 from-space; see :meth:`_bump_space`) places the
        stream in segments:

        * consecutive ``frame`` and ``ephemeral`` runs of one unit share a
          segment; ``persistent`` and ``weak`` runs are segments of their
          own, because their members outlive the frame and their order
          among frame survivors decides which old-space pages a later
          release can free;
        * a segment holds the members that still fit (``space.free //
          unit``) and costs at most two graph nodes -- one cohort of its
          frame members rooted in the frame, one unrooted cohort of its
          ephemeral members -- one bump and one page touch over all its
          members in stream order;
        * the member that does not fit goes through :meth:`alloc`, so
          collections and space growth trigger where the scalar loop
          triggers them.

        The two-node segment is exact: an ephemeral member is dead at
        every collection that starts after its placement, the frame
        members all die at :meth:`end_invocation`, and per-member fault
        billing does not depend on scope.  So every collection sees the
        scalar loop's survivors in address order.  Other runtimes make
        one :meth:`alloc_cohort` call per run.
        """
        self._check_booted()
        if self._bump_space() is None:
            for scope, unit, count in runs:
                self.alloc_cohort(count, unit, scope=scope)
        else:
            self._place_runs(runs)

    def _supports_cohorts(self, unit: int) -> bool:
        """Whether this runtime can bulk-place ``unit``-byte cohorts."""
        return False

    def _alloc_cohort_fast(self, count: int, unit: int, scope: str) -> List[int]:
        """Place one batchable run; bump runtimes take the stream placer."""
        return self._place_runs(((scope, unit, count),))

    def _bump_space(self) -> Optional[Tuple[ContiguousSpace, int]]:
        """The space bump placement fills now and its base address, or
        ``None`` for a runtime that does not bump-allocate."""
        return None

    def _bumped(self, space: ContiguousSpace, oid: int, size: int) -> None:
        """Per-node bookkeeping after the placer bumps ``oid`` into ``space``."""

    def _place_runs(self, runs: Iterable[Tuple[str, int, int]]) -> List[int]:
        """The bump-space placer behind :meth:`alloc_stream` (and, for one
        run, :meth:`alloc_cohort`); returns the placed node ids.

        The open segment is ``(kind, unit)``, where ``kind`` is
        ``"frame"`` for frame and ephemeral members alike, and holds
        ``kept`` rooted and ``eph`` unrooted members with ``room`` more to
        go.  Nothing touches the heap while a segment is open, so it is
        bumped only when it closes: at a kind or unit change, when it is
        full, or at the end of the stream.
        """
        oids: List[int] = []
        segment: Optional[Tuple[str, int]] = None
        space: Optional[ContiguousSpace] = None
        base = kept = eph = room = 0
        for scope, unit, count in runs:
            kind = "frame" if scope == "ephemeral" else scope
            while count > 0:
                if segment is not None and segment != (kind, unit):
                    self._bump_segment(space, base, segment, kept, eph, oids)
                    segment = None
                if segment is None:
                    if not self._supports_cohorts(unit):
                        oids.extend(self.alloc(unit, scope=scope) for _ in range(count))
                        break
                    space, base = self._bump_space()
                    room = space.free // unit
                    if not room:
                        oids.append(self.alloc(unit, scope=scope))
                        count -= 1
                        continue
                    segment, kept, eph = (kind, unit), 0, 0
                take = count if count < room else room
                if scope == "ephemeral":
                    eph += take
                else:
                    kept += take
                room -= take
                count -= take
                if not room:
                    self._bump_segment(space, base, segment, kept, eph, oids)
                    segment = None
        if segment is not None:
            self._bump_segment(space, base, segment, kept, eph, oids)
        return oids

    def _bump_segment(
        self,
        space: ContiguousSpace,
        base: int,
        segment: Tuple[str, int],
        kept: int,
        eph: int,
        oids: List[int],
    ) -> None:
        """Bump one closed segment: its rooted members, then its ephemeral
        ones, then one page touch over all of them from ``touched``."""
        kind, unit = segment
        graph = self.graph
        addr = base + space.top
        if kept:
            oid = graph.new_cohort(kept, unit)
            self._root(oid, kind)
            space.bump(oid, kept * unit)
            self._bumped(space, oid, kept * unit)
            oids.append(oid)
        if eph:
            oid = graph.new_cohort(eph, unit)
            space.bump(oid, eph * unit)
            self._bumped(space, oid, eph * unit)
            oids.append(oid)
        self._touch_cohort_segment(addr, unit, kept + eph, base + space.touched)
        space.touched = max(space.touched, page_ceil(space.top))

    def _place_cohort_segment(self, oid: int, scope: str, place) -> None:
        """Root one segment cohort per ``scope`` and run its placement.

        Mirrors :meth:`alloc`'s routing, including the placement-guard
        rooting for ephemerals (the site references the run until its
        placement finishes).
        """
        self._root(oid, scope)
        if scope == "ephemeral":
            self.graph.root_persistent(oid)
            try:
                place()
            finally:
                self.graph.unroot_persistent(oid)
        else:
            place()

    def _touch_cohort_segment(
        self, addr: int, unit: int, members: int, floor: int = 0
    ) -> FaultCounts:
        """One bulk touch for ``members`` contiguous ``unit``-byte objects
        at ``addr``, billed per member; returns the run's fault counts.

        Fault *costs* accumulate in float arithmetic, so the billing must
        match the scalar path add for add: each faulting page is billed to
        the first member whose page-aligned span covers it (exactly which
        member would have faulted it in the one-touch-per-object flow),
        and each faulting member adds one fault cost, in member order
        (:func:`_bill_fault_runs`).  Members that fault nothing are
        skipped, which adds the same ``0.0``.

        Pages below the absolute address ``floor`` are neither touched nor
        billed: a bump space passes its ``touched`` watermark, because the
        scalar ``_materialize`` never re-touches pages beneath it, even
        swapped-out ones.  The run may span several mappings (every heap
        ``commit`` is an ``mprotect`` that splits the reservation).  The
        touch is one VMM call, and it reports the runs of pages it
        faulted; on the anonymous heap mappings those are exactly the
        range's pages that were not ``ANON_DIRTY`` before it.
        """
        lo = max(page_floor(addr), floor)
        hi = page_ceil(addr + members * unit)
        if hi <= lo:
            return FaultCounts()
        faults: List[Tuple[int, int, bool]] = []
        counts = self.space.touch(lo, hi - lo, faults=faults)
        if faults:
            self.invocation_fault_seconds = _bill_fault_runs(
                self.invocation_fault_seconds, faults, addr, unit
            )
        return counts

    def _split_cohort_to_fit(
        self, oid: int, room: int, live: Optional[Set[int]] = None
    ) -> Optional[int]:
        """Cut cohort ``oid`` where its members overflow ``room`` bytes.

        A moving collector copies a run's members one after another, so
        when the whole run overflows a destination with room for at least
        one member, the members part ways at ``room // unit``.  Returns
        the tail's id, or ``None`` when nothing needs cutting (a plain
        object, a run that fits, a room too small for any member).  The
        tail joins ``live`` (the collection's reachable set) when given.
        """
        obj = self.graph.objects[oid]
        if not isinstance(obj, CohortObject) or obj.size <= room or room < obj.unit:
            return None
        tail = self.graph.split_cohort(oid, room // obj.unit)
        if live is not None:
            live.add(tail)
        return tail

    def free_persistent(self, oid: int) -> None:
        """Drop a persistent root (cached state handed off / invalidated)."""
        self.graph.unroot_persistent(oid)

    @abc.abstractmethod
    def _place(self, oid: int) -> None:
        """Assign the object a heap address, collecting/expanding as needed."""

    # ------------------------------------------------------------------- GC

    @abc.abstractmethod
    def collect(self, full: bool, aggressive: bool = False) -> float:
        """Run one collection cycle; returns its CPU seconds."""

    def full_gc(self, aggressive: bool = True) -> float:
        """The application-facing ``System.gc()`` / ``global.gc`` (eager
        baseline).  Aggressive by default, per §4.7."""
        return self.collect(full=True, aggressive=aggressive)

    @abc.abstractmethod
    def _full_gc(self, aggressive: bool) -> float:
        """Collect the whole heap and let the resize policy act; returns
        its CPU seconds."""

    def reclaim(self, aggressive: bool = False) -> ReclaimOutcome:
        """Desiccant's interface, Algorithm 1 (§4.4): a full collection
        that lets the resize policy shrink, then the release of every free
        page (§7 applies the same recipe to the arena runtimes).

        ``released_bytes`` is everything returned to the OS: the discarded
        pages, or the USS drop when the collection's own resize
        (uncommit, unmapped chunks) returned more.
        """
        uss_before = self.uss()
        gc_seconds, evacuated_bytes = self._reclaim_gc(aggressive)
        discarded = self._release_free_pages() * PAGE_SIZE
        uss_after = self.uss()
        return ReclaimOutcome(
            live_bytes=self.last_gc_live_bytes,
            released_bytes=max(discarded, uss_before - uss_after),
            cpu_seconds=gc_seconds + costs.release_cost(discarded),
            uss_before=uss_before,
            uss_after=uss_after,
            aggressive=aggressive,
            evacuated_bytes=evacuated_bytes,
        )

    def _reclaim_gc(self, aggressive: bool) -> Tuple[float, int]:
        """The reclaim's collection: ``(CPU seconds, evacuated bytes)``."""
        return self._full_gc(aggressive), 0

    @abc.abstractmethod
    def _release_free_pages(self) -> int:
        """Discard every heap page no live object needs; returns pages."""

    @abc.abstractmethod
    def heap_stats(self) -> HeapStats:
        """Committed/used/live-estimate snapshot."""

    # ------------------------------------------------------------- metrics

    def uss(self) -> int:
        """The instance's unique set size (the paper's headline metric).

        Cached on ``(space.version, space.external_version)``: the first
        covers every operation on this space, the second covers shared
        file pages whose last co-sharer appeared or vanished from another
        space (the only remote influence on USS).
        """
        key = (self.space.version, self.space.external_version)
        cached = self._uss_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        value = uss_bytes(self.space)
        self._uss_cache = (key, value)
        return value

    def heap_resident_bytes(self) -> int:
        """Resident bytes inside the heap range (what ``pmap`` reports for
        the address range the instance registered, §4.5.2).

        RSS counts resident pages regardless of sharing, so remote
        sharer transitions cannot move it: caching on ``space.version``
        alone is exact.
        """
        cached = self._hrb_cache
        if cached is not None and cached[0] == self.space.version:
            return cached[1]
        total = resident_bytes(self._heap_mappings())
        self._hrb_cache = (self.space.version, total)
        return total

    @abc.abstractmethod
    def _heap_mappings(self) -> List[Mapping]:
        """All mappings that make up the managed heap."""

    def touch_live_data(self) -> float:
        """Fault in everything an invocation actually reads: cached heap
        state, the runtime's native memory, and library code.

        On a healthy instance this is free (everything is resident).  After
        Desiccant's reclaim only discarded *free* pages and unmapped
        libraries refault (cheap minor faults, Figure 13); after the swap
        baseline, the *live* pages come back through major faults -- the
        §5.6 reason swapping is 2.4x worse.
        """
        # Fast path: if nothing has been released since the last full
        # touch, every page this would visit is still resident.
        if self._live_touch_epoch == self.space.release_epoch:
            return 0.0
        seconds = self._touch_live_heap()
        if self._native is not None and self._native_touched > 0:
            counts = self.space.touch(self._native.start, self._native_touched)
            seconds += self._charge_faults(counts.minor, counts.major)
        for mapping, spec in zip(self._lib_mappings, self._mapped_specs):
            hot = int(spec.size * spec.touched_fraction)
            if hot > 0:
                counts = self.space.touch(mapping.start, hot, write=False)
                seconds += self._charge_faults(counts.minor, counts.major)
        self._live_touch_epoch = self.space.release_epoch
        return seconds

    @abc.abstractmethod
    def _touch_live_heap(self) -> float:
        """Fault in the heap regions that hold live data."""

    def _touch_object_spans(
        self, spans: Iterable[Tuple[int, int]], write: bool = True
    ) -> float:
        """Touch a batch of ``(addr, length)`` spans with range coalescing.

        Each span is page-aligned exactly as a per-span ``space.touch`` call
        would align it, then overlapping/adjacent page ranges are merged, so
        the set of pages visited is identical to touching every span
        individually -- but densely-packed live objects collapse into a few
        bulk touches instead of one VMM call each.
        """
        ranges = sorted(
            (page_floor(addr), page_ceil(addr + length)) for addr, length in spans
        )
        seconds = 0.0
        pos = 0  # ranges are half-open [lo, hi); merge while they overlap
        n = len(ranges)
        while pos < n:
            lo, hi = ranges[pos]
            pos += 1
            while pos < n and ranges[pos][0] <= hi:
                if ranges[pos][1] > hi:
                    hi = ranges[pos][1]
                pos += 1
            if hi <= lo:
                continue
            counts = self.space.touch(lo, hi - lo, write=write)
            seconds += self._charge_faults(counts.minor, counts.major)
        return seconds

    def live_bytes(self) -> int:
        """Exact live bytes (the runtime's query interface, §4.5.2)."""
        return self.graph.live_bytes(include_weak=True)

    def ideal_uss(self) -> int:
        """The §3.1 *ideal* consumption: live objects plus the private
        native memory the runtime genuinely uses (its "useful contents")."""
        return self.live_bytes() + self._native_touched

    def destroy(self) -> None:
        """Tear the instance down (eviction)."""
        self.space.close()

    # ------------------------------------------------------------ internals

    def _record_gc(self, kind: str, seconds: float, collected: int, live: int) -> None:
        self.total_gc_seconds += seconds
        self.invocation_gc_seconds += seconds
        self.last_gc_live_bytes = live

    def _parallel_pause(self, cpu_work_seconds: float) -> float:
        """Wall-clock pause for ``cpu_work_seconds`` of collection work
        spread over the configured GC threads (with 5% coordination
        overhead per extra thread)."""
        threads = max(1, self.config.gc_threads)
        if threads == 1:
            return cpu_work_seconds
        return cpu_work_seconds * (1 + 0.05 * (threads - 1)) / threads

    def _charge_faults(self, minor: int, major: int = 0) -> float:
        seconds = costs.fault_cost(minor, major)
        self.invocation_fault_seconds += seconds
        return seconds

    def _check_booted(self) -> None:
        if not self.booted:
            raise RuntimeError(f"{self.name}: not booted")


def _bill_fault_runs(
    seconds: float, faults: Sequence[Tuple[int, int, bool]], addr: int, unit: int
) -> float:
    """``seconds`` plus the per-member fault bills of one cohort touch.

    ``faults`` holds the touch's faulting pages as ascending ``(first,
    end, swapped)`` runs of absolute page numbers, for members of ``unit``
    bytes from ``addr``.  Page ``p`` is billed to member ``max(0, (p *
    PAGE_SIZE - addr) // unit)``: the first member whose page-aligned span
    reaches it.  So a run's pages go to consecutive members.  Its first
    and last member may take only part of their pages from it, and a
    member whose pages lie in two runs (split by dirty pages, a mapping
    boundary, or fresh pages meeting swapped ones) still gets one bill
    for both; every member in between takes its whole span.
    Each faulting member adds one ``costs.fault_cost(minor, major)``, in
    member order, exactly as the scalar path would.

    When ``unit`` is a page multiple, the members between a run's ends
    all add the same cost, and ``functools.reduce`` makes those additions
    in C: the same IEEE sums in the same order.  Neither ``seconds + m *
    cost`` nor ``sum`` may stand in for it: both round differently
    (``sum`` of floats is compensated from CPython 3.12 on).
    """
    fault_cost = costs.fault_cost
    page_span = unit >> PAGE_SHIFT if not unit & (PAGE_SIZE - 1) else 0
    member = -1  # the member owing the open bill of ``minor``/``major`` pages
    minor = major = 0
    for first, end, swapped in faults:
        offset = (first << PAGE_SHIFT) - addr
        j = offset // unit if offset > 0 else 0
        if j != member:
            if minor or major:
                seconds += fault_cost(minor, major)
            member, minor, major = j, 0, 0
        # Member k's pages end below page_ceil(addr + (k + 1) * unit).
        cut = (addr + (j + 1) * unit + PAGE_SIZE - 1) >> PAGE_SHIFT
        if end > cut:
            if swapped:
                major += cut - first
            else:
                minor += cut - first
            seconds += fault_cost(minor, major)
            last = (((end - 1) << PAGE_SHIFT) - addr) // unit
            if page_span:
                if last - j > 1:
                    cost = fault_cost(0, page_span) if swapped else fault_cost(page_span, 0)
                    seconds = reduce(add, repeat(cost, last - j - 1), seconds)
            else:
                for k in range(j + 1, last):
                    upper = (addr + (k + 1) * unit + PAGE_SIZE - 1) >> PAGE_SHIFT
                    if upper > cut:
                        pages = upper - cut
                        seconds += fault_cost(0, pages) if swapped else fault_cost(pages, 0)
                        cut = upper
            first = (addr + last * unit + PAGE_SIZE - 1) >> PAGE_SHIFT
            member, minor, major = last, 0, 0
        if swapped:
            major += end - first
        else:
            minor += end - first
    if minor or major:
        seconds += fault_cost(minor, major)
    return seconds
