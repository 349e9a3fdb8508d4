"""Contiguous heap spaces (eden / from / to / old) for the serial collector.

A space is a window into the heap's single reserved mapping.  It tracks

* ``committed`` -- bytes usable by the mutator (grown/shrunk by the resize
  policy via commit/uncommit on the mapping),
* ``top``       -- the bump-allocation pointer,
* ``touched``   -- the high-water mark of pages ever dirtied.  This is the
  quantity the paper's characterization turns on: after GC resets ``top``,
  the dirty pages up to ``touched`` remain resident, and HotSpot never
  returns them to the OS while they sit below ``committed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.mem.layout import page_ceil, page_floor


@dataclass
class ContiguousSpace:
    """One bump-allocated region inside the reserved heap."""

    name: str
    offset: int  # byte offset of the space within the heap mapping
    reserved: int  # maximum size the space may commit
    committed: int = 0
    top: int = 0
    touched: int = 0
    #: Objects resident in this space, in address order; the object at
    #: list index i starts at the sum of the sizes of its predecessors.
    objects: List[int] = field(default_factory=list)

    def __getstate__(self) -> tuple:
        """Compact pickle state (a flat tuple, no keyed ``__dict__``):
        heap spaces recur in every epoch checkpoint, and the flat form
        dumps faster at fewer bytes."""
        return (
            self.name,
            self.offset,
            self.reserved,
            self.committed,
            self.top,
            self.touched,
            self.objects,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.name,
            self.offset,
            self.reserved,
            self.committed,
            self.top,
            self.touched,
            self.objects,
        ) = state

    @property
    def free(self) -> int:
        """Bytes between the allocation pointer and the committed end."""
        return self.committed - self.top

    def fits(self, size: int) -> bool:
        return size <= self.free

    def bump(self, oid: int, size: int) -> None:
        """Place ``oid`` at ``top`` (caller checked :meth:`fits`)."""
        if not self.fits(size):
            raise AssertionError(
                f"{self.name}: bump of {size} exceeds free {self.free}"
            )
        self.objects.append(oid)
        self.top += size

    def reset(self) -> None:
        """Empty the space (after evacuation); dirty pages remain touched."""
        self.objects.clear()
        self.top = 0

    def release_range(self) -> tuple[int, int]:
        """The page-aligned free range ``[begin, end)`` within the heap
        mapping that Algorithm 1 releases: from above ``top`` to the end of
        the committed region.  Returns offsets relative to the mapping."""
        begin = page_ceil(self.offset + self.top)
        end = page_floor(self.offset + self.committed)
        return begin, max(begin, end)
