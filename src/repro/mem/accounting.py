"""USS / RSS / PSS accounting over virtual address spaces.

Definitions follow ``/proc/<pid>/smaps``:

* **RSS**  -- every resident page, shared or not, counted fully.
* **PSS**  -- private pages fully, shared pages divided by sharer count.
* **USS**  -- ``private_clean + private_dirty`` only.  A file page touched by
  a single mapping is *private_clean* (so un-shared libraries land in USS,
  which is why Desiccant's unmap optimization shows up in Figure 8/11).

The paper measures instances by USS (§3.1), so USS is the headline metric
throughout the reproduction.

Accounting is O(1) per mapping: the VMM maintains residency counters on
every page-state transition, and :class:`~repro.mem.physical.MappedFile`
maintains each mapping's solo-page count and proportional share
incrementally -- so measuring a whole address space every simulation event
stays cheap and always exact.  The hot reads (an instance's USS, its heap
RSS) go through :func:`uss_bytes` and :func:`resident_bytes`, which read
those counters without building a :class:`MemoryReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.mem.layout import PAGE_SIZE
from repro.mem.vmm import Mapping, VirtualAddressSpace


@dataclass
class MemoryReport:
    """Byte counts for one address space (or one mapping)."""

    private_dirty: int = 0
    private_clean: int = 0
    shared_clean: int = 0
    shared_dirty: int = 0
    pss: float = 0.0
    swap: int = 0

    @property
    def uss(self) -> int:
        """Unique set size: private pages only."""
        return self.private_dirty + self.private_clean

    @property
    def rss(self) -> int:
        """Resident set size: everything resident, shared counted fully."""
        return (
            self.private_dirty
            + self.private_clean
            + self.shared_clean
            + self.shared_dirty
        )

    def __iadd__(self, other: "MemoryReport") -> "MemoryReport":
        self.private_dirty += other.private_dirty
        self.private_clean += other.private_clean
        self.shared_clean += other.shared_clean
        self.shared_dirty += other.shared_dirty
        self.pss += other.pss
        self.swap += other.swap
        return self


def measure_mapping(mapping: Mapping) -> MemoryReport:
    """Account one mapping's resident pages (O(1) from the counters)."""
    report = MemoryReport()
    report.private_dirty = mapping.n_anon * PAGE_SIZE
    report.pss = float(mapping.n_anon * PAGE_SIZE)
    report.swap = mapping.n_swapped * PAGE_SIZE
    if mapping.file is not None and mapping.n_file:
        solo = min(mapping.n_file, mapping.file.solo_pages(mapping.id))
        report.private_clean = solo * PAGE_SIZE
        report.shared_clean = (mapping.n_file - solo) * PAGE_SIZE
        report.pss += mapping.file.pss_pages(mapping.id) * PAGE_SIZE
    return report


def uss_bytes(space: VirtualAddressSpace) -> int:
    """``measure(space).uss`` straight from the page counters.

    A mapping's unique pages are its anonymous pages plus the file pages
    no other mapping holds: the same integers :func:`measure_mapping`
    reports as ``private_dirty`` and ``private_clean``, without building
    a report (and its PSS float) per mapping.
    """
    pages = 0
    for mapping in space.mappings():
        pages += mapping.n_anon
        if mapping.n_file:
            pages += min(mapping.n_file, mapping.file.solo_pages(mapping.id))
    return pages * PAGE_SIZE


def resident_bytes(mappings: Iterable[Mapping]) -> int:
    """The summed ``measure_mapping(m).rss`` of ``mappings``, from the
    page counters: every resident page, shared or not."""
    pages = 0
    for mapping in mappings:
        pages += mapping.n_anon + mapping.n_file
    return pages * PAGE_SIZE


def measure(space: VirtualAddressSpace) -> MemoryReport:
    """Account a whole address space."""
    total = MemoryReport()
    for mapping in space.mappings():
        total += measure_mapping(mapping)
    return total


def measure_many(spaces: Iterable[VirtualAddressSpace]) -> MemoryReport:
    """Aggregate accounting across several address spaces.

    Note that summing RSS double-counts shared pages (as it does on a real
    machine); summed PSS is the physically-meaningful total.
    """
    total = MemoryReport()
    for space in spaces:
        total += measure(space)
    return total
