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
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.mem.accounting import measure, measure_mapping
from repro.mem.layout import (
    MIB,
    PAGE_SHIFT,
    PROT_RX,
    Protection,
    page_ceil,
    page_floor,
)
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.mem.vmm import FaultCounts, Mapping, PageState, VirtualAddressSpace
from repro.runtime import costs
from repro.runtime.object_model import CohortObject, ObjectGraph


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


@dataclass
class GCEvent:
    """One collection, for tests and traces."""

    kind: str  # "young" | "full"
    seconds: float
    collected_bytes: int
    live_bytes: int


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
        self.gc_events: List[GCEvent] = []
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

    def alloc(
        self,
        size: int,
        refs: Iterable[int] = (),
        scope: str = "frame",
    ) -> int:
        """Allocate an object and root it per ``scope``.

        * ``"ephemeral"``  -- unrooted; dead at the next collection.
        * ``"frame"``      -- lives until the invocation ends (the default).
        * ``"persistent"`` -- cached state, lives across invocations.
        * ``"weak"``       -- held only by a weak root (JIT artifacts).
        """
        self._check_booted()
        oid = self.graph.new_object(size, refs)
        if scope == "frame":
            self.graph.root_in_frame(oid)
        elif scope == "persistent":
            self.graph.root_persistent(oid)
        elif scope == "weak":
            self.graph.root_weak(oid)
        elif scope != "ephemeral":
            raise ValueError(f"unknown scope {scope!r}")
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
        keeps as the reference.

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

    def _supports_cohorts(self, unit: int) -> bool:
        """Whether this runtime can bulk-place ``unit``-byte cohorts."""
        return False

    def _alloc_cohort_fast(self, count: int, unit: int, scope: str) -> List[int]:
        raise NotImplementedError  # pragma: no cover - guarded by the gate

    def _place_cohort_segment(self, oid: int, scope: str, place) -> None:
        """Root one segment cohort per ``scope`` and run its placement.

        Mirrors :meth:`alloc`'s routing, including the placement-guard
        rooting for ephemerals (the site references the run until its
        placement finishes).
        """
        if scope == "frame":
            self.graph.root_in_frame(oid)
        elif scope == "persistent":
            self.graph.root_persistent(oid)
        elif scope == "weak":
            self.graph.root_weak(oid)
        elif scope != "ephemeral":
            raise ValueError(f"unknown scope {scope!r}")
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
        at ``addr``, charged per member; returns the run's fault counts.

        Fault *costs* accumulate in float arithmetic, so the charging
        order must match the scalar path: each faulting page is billed to
        the first member whose page-aligned span covers it (exactly which
        member would have faulted it in the one-touch-per-object flow),
        and :meth:`_charge_faults` runs in member order.  Members that
        fault nothing are skipped, which adds the same ``0.0``.

        Pages below the absolute address ``floor`` are neither touched nor
        billed: a bump space passes its ``touched`` watermark, because the
        scalar ``_materialize`` never re-touches pages beneath it, even
        swapped-out ones.  The run may span several mappings (every heap
        ``commit`` is an ``mprotect`` that splits the reservation).  Page
        states are read before the touch; the touch is one VMM call.
        """
        lo = max(page_floor(addr), floor)
        hi = page_ceil(addr + members * unit)
        if hi <= lo:
            return FaultCounts()
        # Runs of pages the touch will fault, as absolute page numbers.
        faults: List[Tuple[int, int, bool]] = []
        pos = lo
        while pos < hi:
            mapping = self.space.find_mapping(pos)
            if mapping is None:
                break  # the touch below raises SegmentationFault
            end = min(hi, mapping.end)
            base = mapping.start >> PAGE_SHIFT
            first = (pos - mapping.start) >> PAGE_SHIFT
            last = (end - mapping.start) >> PAGE_SHIFT
            for s, e, state in mapping.segments(first, last):
                if state is not PageState.ANON_DIRTY:
                    faults.append((base + s, base + e, state is PageState.SWAPPED))
            pos = end
        counts = self.space.touch(lo, hi - lo)
        # Member j covers pages [done, page_ceil(end of member j)).
        done = lo >> PAGE_SHIFT
        i, n = 0, len(faults)
        end = addr
        for _ in range(members):
            if i == n:
                break  # every faulting page is billed
            end += unit
            m_hi = page_ceil(end) >> PAGE_SHIFT
            if m_hi <= done:
                continue
            minor = major = 0
            while i < n:
                s, e, swapped = faults[i]
                if s >= m_hi:
                    break
                pages = min(e, m_hi) - max(s, done)
                if swapped:
                    major += pages
                else:
                    minor += pages
                if e > m_hi:
                    break
                i += 1
            done = m_hi
            if minor or major:
                self._charge_faults(minor, major)
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
    def reclaim(self, aggressive: bool = False) -> ReclaimOutcome:
        """Desiccant's interface: GC + resize + release free pages (§4.4)."""

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
        value = measure(self.space).uss
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
        total = 0
        for mapping in self._heap_mappings():
            total += measure_mapping(mapping).rss
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
        self.gc_events.append(GCEvent(kind, seconds, collected, live))
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
