"""Virtual address spaces with mmap/munmap/mprotect/madvise and demand paging.

One :class:`VirtualAddressSpace` stands in for one process (one FaaS instance
container).  Pages start non-present and fault in on first touch, exactly like
anonymous memory under Linux; the accounting layer then derives USS/RSS/PSS
from per-page states.  The operations the paper's mechanisms need are all
here:

* HotSpot commits/uncommits heap ranges (``commit``/``uncommit`` -- the
  ``mmap``-based expand/shrink of §3.2.1),
* Desiccant releases free pages with ``discard`` (the
  ``mmap(space.top(), ...)`` of Algorithm 1, equivalent to
  ``madvise(MADV_DONTNEED)``),
* the swap baseline moves private pages out with ``swap_out_range``,
* the library optimization unmaps private file ranges found via smaps.

Residency is stored run-length: each mapping keeps a sorted
:class:`~repro.mem.runlist.RunList` of ``(start_page, end_page, PageState)``
runs, so every range operation above costs O(runs changed + log runs)
rather than O(pages).  The paper's mechanisms are range-granular by nature
(``madvise`` over the free span, HotSpot shrinking whole regions), so runs
stay few and a 200 MiB fault-in is a single splice, not 51k dict stores.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.mem.layout import (
    PAGE_SIZE,
    PAGE_SHIFT,
    PROT_RW,
    Protection,
    page_ceil,
    page_floor,
)
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.mem.runlist import RunList

#: Where anonymous/bump allocations start; mirrors the x86-64 mmap area.
DEFAULT_MMAP_BASE = 0x7F00_0000_0000

_mapping_ids = itertools.count(1)

#: Protection bits as plain ints: ``touch`` tests ``int(prot) & bit``,
#: because ``IntFlag.__and__`` is Python code.
_READ_BIT = int(Protection.READ)
_WRITE_BIT = int(Protection.WRITE)


class MemoryError_(Exception):
    """Base class for address-space errors (named to avoid the builtin)."""


class SegmentationFault(MemoryError_):
    """Access to an unmapped or protection-violating address."""


class MappingConflict(MemoryError_):
    """A fixed-address mmap overlaps an existing mapping."""


class PageState(enum.Enum):
    """Per-page residency state within a mapping."""

    NOT_PRESENT = 0
    ANON_DIRTY = 1  # private anonymous frame (includes COW'd file pages)
    FILE_CLEAN = 2  # backed by the shared file page cache
    SWAPPED = 3  # private page pushed to the swap device


@dataclass
class FaultCounts:
    """Faults incurred by one touch operation."""

    minor: int = 0
    major: int = 0

    def __iadd__(self, other: "FaultCounts") -> "FaultCounts":
        self.minor += other.minor
        self.major += other.major
        return self

    @property
    def total(self) -> int:
        return self.minor + self.major


@dataclass
class SwapOutResult:
    """Outcome of one :meth:`VirtualAddressSpace.swap_out_range` call.

    ``swapped`` counts private pages actually moved to the swap device;
    ``dropped`` counts FILE_CLEAN pages whose cache reference was simply
    released (the kernel would do the same -- they can be re-read).  Both
    free physical memory, but only swapped pages cost a major fault later.
    """

    swapped: int = 0
    dropped: int = 0

    @property
    def total(self) -> int:
        """All pages whose frames were released by the call."""
        return self.swapped + self.dropped

    def __iadd__(self, other: "SwapOutResult") -> "SwapOutResult":
        self.swapped += other.swapped
        self.dropped += other.dropped
        return self

    def __bool__(self) -> bool:
        return self.total > 0


class PageStateView:
    """Read-only, dict-like view of a mapping's present pages.

    Kept for callers of the former ``Mapping.pages`` dict: supports
    ``rel in view``, ``view[rel]`` (KeyError when not present),
    ``view.get(rel)``, ``len(view)``, iteration, and ``.items()``.
    """

    __slots__ = ("_mapping",)

    def __init__(self, mapping: "Mapping") -> None:
        self._mapping = mapping

    def __contains__(self, rel: int) -> bool:
        return self._mapping.state_of(rel) is not PageState.NOT_PRESENT

    def __getitem__(self, rel: int) -> PageState:
        state = self._mapping.state_of(rel)
        if state is PageState.NOT_PRESENT:
            raise KeyError(rel)
        return state

    def get(self, rel: int, default=None):
        state = self._mapping.state_of(rel)
        return default if state is PageState.NOT_PRESENT else state

    def __len__(self) -> int:
        m = self._mapping
        return m.n_anon + m.n_file + m.n_swapped

    def __iter__(self) -> Iterator[int]:
        for rel, _state in self._mapping.page_states():
            yield rel

    def items(self) -> Iterator[Tuple[int, PageState]]:
        return self._mapping.page_states()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageStateView({dict(self.items())!r})"


class Mapping:
    """A contiguous virtual memory area (one ``/proc/pid/maps`` line)."""

    def __init__(
        self,
        start: int,
        length: int,
        prot: Protection,
        name: str,
        file: Optional[MappedFile] = None,
        file_offset: int = 0,
        shared: bool = False,
    ) -> None:
        if start % PAGE_SIZE or length % PAGE_SIZE:
            raise ValueError("mappings must be page aligned")
        if length <= 0:
            raise ValueError("mapping length must be positive")
        if shared and file is None:
            raise ValueError("shared mappings must be file-backed")
        if file is not None and file_offset % PAGE_SIZE:
            raise ValueError("file offset must be page aligned")
        self.id = next(_mapping_ids)
        self.start = start
        self.length = length
        self.prot = prot
        self.name = name
        self.file = file
        self.file_offset = file_offset
        self.shared = shared
        #: Run-length page table: runs of (first, last, PageState); gaps are
        #: NOT_PRESENT.  All mutation goes through single splices.
        self._runs = RunList()
        #: Residency counters kept in lockstep with ``_runs`` so accounting
        #: is O(1) per mapping.
        self.n_anon = 0
        self.n_file = 0
        self.n_swapped = 0

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def num_pages(self) -> int:
        return self.length >> PAGE_SHIFT

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def file_page_of(self, rel_page: int) -> int:
        """Map a page index within this mapping to a page index in the file."""
        return (self.file_offset >> PAGE_SHIFT) + rel_page

    @property
    def pages(self) -> PageStateView:
        """Dict-like view over present pages (compat with the old dict)."""
        return PageStateView(self)

    def state_of(self, rel: int) -> PageState:
        """State of one page (``NOT_PRESENT`` when never touched)."""
        return self._runs.value_at(rel, PageState.NOT_PRESENT)

    def runs(
        self, first: int = 0, last: Optional[int] = None
    ) -> Iterator[Tuple[int, int, PageState]]:
        """Present ``(first, last, state)`` runs clipped to the window."""
        if last is None:
            last = self.num_pages
        return self._runs.iter_runs(first, last)

    def segments(
        self, first: int = 0, last: Optional[int] = None
    ) -> Iterator[Tuple[int, int, PageState]]:
        """Like :meth:`runs` but with NOT_PRESENT gaps included."""
        if last is None:
            last = self.num_pages
        return self._runs.iter_segments(first, last, PageState.NOT_PRESENT)

    def page_states(self) -> Iterator[Tuple[int, PageState]]:
        """Iterate over (relative page index, state) of present pages."""
        for s, e, state in self._runs.iter_runs(0, self.num_pages):
            for rel in range(s, e):
                yield rel, state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.file.path if self.file else "anon"
        return (
            f"Mapping({self.start:#x}-{self.end:#x} {self.prot!r} "
            f"{self.name} [{kind}])"
        )


class VirtualAddressSpace:
    """One process's address space: mappings plus demand-paged residency."""

    def __init__(
        self,
        name: str,
        physical: Optional[PhysicalMemory] = None,
        mmap_base: int = DEFAULT_MMAP_BASE,
    ) -> None:
        self.name = name
        self.physical = physical if physical is not None else PhysicalMemory()
        self._mappings: Dict[int, Mapping] = {}
        self._starts: List[int] = []  # sorted starts for lookup
        self._bump = mmap_base
        self.faults = FaultCounts()
        self.closed = False
        self._version = 0
        #: Bumped only when resident pages are *released* (discard, swap,
        #: uncommit, munmap); runtimes use it to skip re-touching data that
        #: cannot have gone away.
        self.release_epoch = 0
        #: Bumped when *another* space's operation changes this space's
        #: USS (a shared file page gaining/losing its last co-sharer);
        #: fed by :meth:`MappedFile.watch` callbacks.  Caches that depend
        #: on USS must key on ``(version, external_version)``.
        self.external_version = 0
        #: Optional zero-argument callback fired whenever ``version`` or
        #: ``external_version`` moves; the platform uses it for dirty-set
        #: incremental aggregation.
        self.change_listener: Optional[Callable[[], None]] = None

    @property
    def version(self) -> int:
        """Bumped on any residency/mapping change; accounting caches on
        it.  Touch operations bump it by the number of pages that changed
        state, releases by one per releasing call -- the same cadence as
        the per-page implementation this replaces."""
        return self._version

    @version.setter
    def version(self, value: int) -> None:
        if value == self._version:
            return
        self._version = value
        if self.change_listener is not None:
            self.change_listener()

    def _on_file_change(self) -> None:
        """A shared file mutated this space's solo-page count from afar."""
        self.external_version += 1
        if self.change_listener is not None:
            self.change_listener()

    # ------------------------------------------------------------------ maps

    def mappings(self) -> List[Mapping]:
        """All mappings, ordered by start address."""
        return [self._mappings[s] for s in self._starts]

    def find_mapping(self, addr: int) -> Optional[Mapping]:
        """Return the mapping containing ``addr``, or ``None``."""
        starts = self._starts
        idx = bisect_right(starts, addr) - 1
        if idx < 0:
            return None
        mapping = self._mappings[starts[idx]]
        return mapping if addr < mapping.start + mapping.length else None

    def mappings_in(self, start: int, end: int) -> List[Mapping]:
        """The mappings that overlap ``[start, end)``, by start address."""
        result = []
        starts, mappings = self._starts, self._mappings
        idx = max(0, bisect_right(starts, start) - 1)
        n = len(starts)
        while idx < n:
            s = starts[idx]
            if s >= end:
                break
            mapping = mappings[s]
            if s + mapping.length > start:
                result.append(mapping)
            idx += 1
        return result

    def mmap(
        self,
        length: int,
        prot: Protection = PROT_RW,
        file: Optional[MappedFile] = None,
        file_offset: int = 0,
        shared: bool = False,
        name: str = "[anon]",
        addr: Optional[int] = None,
    ) -> Mapping:
        """Create a new mapping and return it.

        With ``addr=None`` the space picks the next free address (bump
        allocation); a fixed ``addr`` raises :class:`MappingConflict` when it
        overlaps an existing mapping (unlike ``MAP_FIXED``, we never silently
        clobber -- callers wanting replace-semantics use :meth:`discard`).
        """
        self._check_open()
        length = page_ceil(length)
        if addr is None:
            addr = self._bump
            self._bump += length + PAGE_SIZE  # guard page gap
        else:
            if addr % PAGE_SIZE:
                raise ValueError("fixed mmap address must be page aligned")
            if self._overlaps(addr, length):
                raise MappingConflict(f"mapping at {addr:#x}+{length:#x} overlaps")
            self._bump = max(self._bump, addr + length + PAGE_SIZE)
        mapping = Mapping(addr, length, prot, name, file, file_offset, shared)
        if file is not None:
            file.watch(mapping.id, self._on_file_change)
        self._insert(mapping)
        self.version += 1
        return mapping

    def munmap(self, addr: int, length: int) -> None:
        """Remove mappings in ``[addr, addr+length)``, splitting at edges."""
        self._check_open()
        start, end = page_floor(addr), page_ceil(addr + length)
        for mapping in self.mappings_in(start, end):
            self._split_for(mapping, start, end)
        for mapping in self.mappings_in(start, end):
            # After splitting, every overlapping mapping is fully contained.
            self._release_range(mapping, 0, mapping.num_pages)
            self._remove(mapping)
        self.version += 1

    def mprotect(self, addr: int, length: int, prot: Protection) -> None:
        """Change protection over a range (does *not* free frames)."""
        self._check_open()
        start, end = page_floor(addr), page_ceil(addr + length)
        self._require_fully_mapped(start, end)
        for mapping in self.mappings_in(start, end):
            self._split_for(mapping, start, end)
        for mapping in self.mappings_in(start, end):
            mapping.prot = prot
        self.version += 1

    def commit(self, addr: int, length: int) -> None:
        """Make a reserved range usable (``mprotect`` to read/write)."""
        self.mprotect(addr, length, PROT_RW)

    def uncommit(self, addr: int, length: int) -> None:
        """Return a range to reserved state and drop its frames.

        Equivalent to HotSpot's shrink: ``mmap`` fixed ``PROT_NONE`` over the
        range, which both blocks access and releases physical memory.
        """
        self.discard(addr, length)
        self.mprotect(addr, length, Protection.NONE)

    # --------------------------------------------------------------- touches

    def touch(
        self,
        addr: int,
        length: int,
        write: bool = True,
        faults: Optional[List[Tuple[int, int, bool]]] = None,
    ) -> FaultCounts:
        """Access ``[addr, addr+length)``, faulting pages in as needed.

        Returns the faults incurred; raises :class:`SegmentationFault` for
        unmapped or protection-violating accesses.  When ``faults`` is a
        list, the pages this touch faulted are appended to it as
        ascending ``(first, end, swapped)`` runs of absolute page numbers:
        one run per stretch of pages that changed state, never spanning
        two mappings or two pre-touch states, with ``swapped`` set where
        the pages came back from swap (major faults).
        """
        self._check_open()
        counts = FaultCounts()
        start, end = page_floor(addr), page_ceil(addr + length)
        needed = _WRITE_BIT if write else _READ_BIT
        pos = start
        while pos < end:
            mapping = self.find_mapping(pos)
            if mapping is None:
                raise SegmentationFault(f"{self.name}: access at {pos:#x} unmapped")
            if not int(mapping.prot) & needed:
                raise SegmentationFault(
                    f"{self.name}: {Protection(needed)!r} access at {pos:#x} "
                    f"on {mapping.prot!r} mapping"
                )
            span_end = min(end, mapping.start + mapping.length)
            first = (pos - mapping.start) >> PAGE_SHIFT
            last = (span_end - mapping.start + PAGE_SIZE - 1) >> PAGE_SHIFT
            self._touch_range(mapping, first, last, write, counts, faults)
            pos = span_end
        self.faults += counts
        return counts

    def _touch_range(
        self,
        mapping: Mapping,
        first: int,
        last: int,
        write: bool,
        counts: FaultCounts,
        faults: Optional[List[Tuple[int, int, bool]]],
    ) -> None:
        """Fault pages ``[first, last)`` of one mapping in, run by run,
        adding to ``counts`` (and ``faults``, see :meth:`touch`)."""
        runs = mapping._runs
        starts, ends = runs.starts, runs.ends
        cow = write and not mapping.shared  # private writes copy file pages
        phys = self.physical
        i = bisect_right(ends, first)  # first run ending after ``first``
        if i == len(starts) or starts[i] >= last:
            # No present page in the window: one fresh run into one gap.
            n = last - first
            counts.minor += n
            state = self._fault_in(mapping, first, last, cow)
            runs.splice(first, last, ((first, last, state),))
            self.version += n
            if faults is not None:
                base = mapping.start >> PAGE_SHIFT
                faults.append((base + first, base + last, False))
            return
        if starts[i] <= first and ends[i] >= last:
            state = runs.values[i]
            if state is PageState.ANON_DIRTY or (
                state is PageState.FILE_CLEAN and not cow
            ):
                return  # one resident run that this access cannot fault
        changed = 0
        pieces: List[Tuple[int, int, PageState]] = []
        base = mapping.start >> PAGE_SHIFT
        for s, e, state in runs.iter_segments(first, last, PageState.NOT_PRESENT):
            n = e - s
            if state is PageState.ANON_DIRTY:
                pieces.append((s, e, state))
                continue
            if state is PageState.NOT_PRESENT:
                counts.minor += n
                pieces.append((s, e, self._fault_in(mapping, s, e, cow)))
            elif state is PageState.FILE_CLEAN:
                if not cow:
                    pieces.append((s, e, state))
                    continue
                # Copy-on-write: private file pages become anon frames.
                counts.minor += n
                freed = mapping.file.untouch_range(
                    mapping.file_page_of(s), mapping.file_page_of(e), mapping.id
                )
                if freed:
                    phys.free_file(freed)
                phys.alloc_anon(n)
                pieces.append((s, e, PageState.ANON_DIRTY))
                mapping.n_file -= n
                mapping.n_anon += n
            else:  # SWAPPED
                counts.major += n
                phys.swap.swap_in(n)
                phys.alloc_anon(n)
                pieces.append((s, e, PageState.ANON_DIRTY))
                mapping.n_swapped -= n
                mapping.n_anon += n
            changed += n
            if faults is not None:
                faults.append((base + s, base + e, state is PageState.SWAPPED))
        if changed:
            runs.splice(first, last, pieces)
            self.version += changed

    def _fault_in(self, mapping: Mapping, s: int, e: int, cow: bool) -> PageState:
        """Back the non-present pages ``[s, e)`` of ``mapping`` with
        frames; returns their new state."""
        n = e - s
        if mapping.file is not None and not cow:
            # Read of file pages, or write to MAP_SHARED file pages:
            # serve from / install into the page cache.
            fresh = mapping.file.touch_range(
                mapping.file_page_of(s), mapping.file_page_of(e), mapping.id
            )
            if fresh:
                self.physical.alloc_file(fresh)
            mapping.n_file += n
            return PageState.FILE_CLEAN
        # Anonymous pages, or COW writes to unfaulted file pages.
        self.physical.alloc_anon(n)
        mapping.n_anon += n
        return PageState.ANON_DIRTY

    # ------------------------------------------------------------- reclaim

    def discard(self, addr: int, length: int) -> int:
        """``madvise(MADV_DONTNEED)``: drop frames, keep the mapping.

        Returns the number of pages whose physical memory was released.
        Subsequent touches zero-fill-fault the pages back in.
        """
        self._check_open()
        start, end = page_floor(addr), page_ceil(addr + length)
        released = 0
        for mapping in self.mappings_in(start, end):
            first = max(0, (start - mapping.start) >> PAGE_SHIFT)
            last = min(
                mapping.num_pages,
                (min(end, mapping.end) - mapping.start + PAGE_SIZE - 1) >> PAGE_SHIFT,
            )
            released += self._release_range(mapping, first, last)
        return released

    def swap_out_range(self, addr: int, length: int) -> SwapOutResult:
        """Push private resident pages in the range to swap (the §5.6 baseline).

        Returns a :class:`SwapOutResult`: ``swapped`` private pages moved to
        the swap device plus ``dropped`` FILE_CLEAN pages whose cache
        reference was released (re-readable, so never written to swap).
        """
        self._check_open()
        start, end = page_floor(addr), page_ceil(addr + length)
        result = SwapOutResult()
        phys = self.physical
        for mapping in self.mappings_in(start, end):
            first = max(0, (start - mapping.start) >> PAGE_SHIFT)
            last = min(
                mapping.num_pages,
                (min(end, mapping.end) - mapping.start + PAGE_SIZE - 1) >> PAGE_SHIFT,
            )
            pieces: List[Tuple[int, int, PageState]] = []
            swapped = dropped = 0
            for s, e, state in mapping._runs.iter_runs(first, last):
                n = e - s
                if state is PageState.ANON_DIRTY:
                    phys.free_anon(n)
                    phys.swap.swap_out(n)
                    pieces.append((s, e, PageState.SWAPPED))
                    swapped += n
                elif state is PageState.FILE_CLEAN:
                    freed = mapping.file.untouch_range(
                        mapping.file_page_of(s), mapping.file_page_of(e), mapping.id
                    )
                    if freed:
                        phys.free_file(freed)
                    dropped += n  # left out of ``pieces``: page gone
                else:  # already SWAPPED
                    pieces.append((s, e, state))
            if swapped or dropped:
                mapping._runs.splice(first, last, pieces)
                mapping.n_anon -= swapped
                mapping.n_swapped += swapped
                mapping.n_file -= dropped
                result.swapped += swapped
                result.dropped += dropped
        if result.total:
            self.version += 1
            self.release_epoch += 1
        return result

    def close(self) -> None:
        """Tear the whole address space down (instance destruction)."""
        if self.closed:
            return
        for mapping in list(self.mappings()):
            self._release_range(mapping, 0, mapping.num_pages)
            self._remove(mapping)
        self.closed = True

    # ------------------------------------------------------------ internals

    def _release_range(self, mapping: Mapping, first: int, last: int) -> int:
        """Free frames for every present page in ``[first, last)``."""
        runs = mapping._runs
        i = bisect_right(runs.ends, first)  # first run ending after ``first``
        if i == len(runs.starts) or runs.starts[i] >= last:
            return 0  # nothing resident in the window
        released = 0
        phys = self.physical
        for s, e, state in runs.iter_runs(first, last):
            n = e - s
            if state is PageState.ANON_DIRTY:
                phys.free_anon(n)
                mapping.n_anon -= n
            elif state is PageState.FILE_CLEAN:
                freed = mapping.file.untouch_range(
                    mapping.file_page_of(s), mapping.file_page_of(e), mapping.id
                )
                if freed:
                    phys.free_file(freed)
                mapping.n_file -= n
            else:  # SWAPPED: discard straight from the swap device.  Not a
                # swap-in -- no frame is allocated and no major fault is paid,
                # so counting it as one would break swap-in/major-fault parity
                # (and under-report swap traffic in snapshot accounting).
                phys.swap.discard(n)
                mapping.n_swapped -= n
            released += n
        runs.clear(first, last)
        self.version += 1
        self.release_epoch += 1
        return released

    def _insert(self, mapping: Mapping) -> None:
        self._mappings[mapping.start] = mapping
        insort(self._starts, mapping.start)

    def _remove(self, mapping: Mapping) -> None:
        if mapping.file is not None:
            mapping.file.unwatch(mapping.id)
        del self._mappings[mapping.start]
        idx = bisect_left(self._starts, mapping.start)
        del self._starts[idx]

    def _overlaps(self, start: int, length: int) -> bool:
        return bool(self.mappings_in(start, start + length))

    def _require_fully_mapped(self, start: int, end: int) -> None:
        covered = start
        for mapping in self.mappings_in(start, end):
            if mapping.start > covered:
                raise SegmentationFault(
                    f"{self.name}: hole at {covered:#x} in mprotect range"
                )
            covered = max(covered, mapping.end)
        if covered < end:
            raise SegmentationFault(f"{self.name}: hole at {covered:#x} in mprotect range")

    def _split_for(self, mapping: Mapping, start: int, end: int) -> None:
        """Split ``mapping`` so the overlap with [start, end) is standalone."""
        if mapping.start < start < mapping.end:
            self._split_at(mapping, start)
            mapping = self.find_mapping(start)
            assert mapping is not None
        if mapping.start < end < mapping.end:
            self._split_at(mapping, end)

    def _split_at(self, mapping: Mapping, addr: int) -> None:
        assert mapping.start < addr < mapping.end and addr % PAGE_SIZE == 0
        head_len = addr - mapping.start
        tail = Mapping(
            addr,
            mapping.end - addr,
            mapping.prot,
            mapping.name,
            mapping.file,
            mapping.file_offset + head_len if mapping.file else 0,
            mapping.shared,
        )
        if tail.file is not None:
            tail.file.watch(tail.id, self._on_file_change)
        split_page = head_len >> PAGE_SHIFT
        tail_pieces: List[Tuple[int, int, PageState]] = []
        n_anon = n_file = n_swapped = 0
        for s, e, state in mapping._runs.iter_runs(split_page, mapping.num_pages):
            tail_pieces.append((s - split_page, e - split_page, state))
            n = e - s
            if state is PageState.ANON_DIRTY:
                n_anon += n
            elif state is PageState.FILE_CLEAN:
                n_file += n
                # Re-home the page-cache references under the tail's mapping
                # id; the untouch/touch frame deltas cancel out, so physical
                # counters are untouched.
                fp_s, fp_e = mapping.file_page_of(s), mapping.file_page_of(e)
                mapping.file.untouch_range(fp_s, fp_e, mapping.id)
                mapping.file.touch_range(fp_s, fp_e, tail.id)
            else:
                n_swapped += n
        mapping._runs.clear(split_page, mapping.num_pages)
        tail._runs.splice(0, tail.num_pages, tail_pieces)
        mapping.n_anon -= n_anon
        mapping.n_file -= n_file
        mapping.n_swapped -= n_swapped
        tail.n_anon = n_anon
        tail.n_file = n_file
        tail.n_swapped = n_swapped
        mapping.length = head_len
        self._insert(tail)

    def _check_open(self) -> None:
        if self.closed:
            raise MemoryError_(f"address space {self.name} is closed")
