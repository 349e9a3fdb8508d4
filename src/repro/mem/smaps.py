"""Per-mapping reports mirroring ``/proc/<pid>/smaps``.

Desiccant's shared-library optimization (§4.6) scans smaps for ranges that
are (1) private to the process, (2) not modified, and (3) file-backed, then
unmaps them.  :func:`find_unmappable_library_ranges` implements exactly that
predicate over these reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mem.accounting import MemoryReport, measure_mapping
from repro.mem.vmm import Mapping, VirtualAddressSpace


@dataclass
class MappingReport:
    """One smaps entry: the mapping's identity plus its memory accounting."""

    start: int
    end: int
    name: str
    path: Optional[str]
    shared: bool
    report: MemoryReport

    @property
    def size(self) -> int:
        return self.end - self.start

    def is_private_unmodified_file(self) -> bool:
        """The §4.6 predicate: private, unmodified, file-backed."""
        return (
            self.path is not None
            and not self.shared
            and self.report.private_dirty == 0
            and self.report.shared_dirty == 0
        )


def _entry(mapping: Mapping) -> MappingReport:
    return MappingReport(
        start=mapping.start,
        end=mapping.end,
        name=mapping.name,
        path=mapping.file.path if mapping.file else None,
        shared=mapping.shared,
        report=measure_mapping(mapping),
    )


def smaps_report(space: VirtualAddressSpace) -> List[MappingReport]:
    """Produce smaps-style entries for every mapping in the space."""
    return [_entry(mapping) for mapping in space.mappings()]


def find_unmappable_library_ranges(
    space: VirtualAddressSpace,
) -> List[MappingReport]:
    """Return smaps entries eligible for the §4.6 library unmap.

    Only ranges whose file pages are mapped *solely* by this process qualify
    (their pages count toward USS); a range whose pages are shared with other
    instances costs nothing and unmapping it would hurt the sharers.  A
    mapping the predicate rejects on its counters alone -- no file, shared,
    or holding dirty (anonymous) pages -- is skipped before it is measured.
    """
    eligible = []
    for mapping in space.mappings():
        if mapping.file is None or mapping.shared or mapping.n_anon:
            continue
        entry = _entry(mapping)
        # Skip ranges that currently cost nothing (fully shared or empty).
        if entry.report.private_clean == 0:
            continue
        eligible.append(entry)
    return eligible
