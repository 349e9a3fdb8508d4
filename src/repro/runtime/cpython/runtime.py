"""The CPython runtime simulator, per the paper's §7 discussion.

CPython's obmalloc manages memory in 256 KiB *arenas* and only returns an
arena to the OS when it becomes completely empty, so fragmentation strands
free memory inside arenas across a freeze.  The §7 recipe for applying
Desiccant -- use the mark-sweep collector plus the allocator's internal
structures to find free regions, then release them -- is
:class:`~repro.runtime.arena.ArenaRuntime`'s reclaim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.layout import KIB, MIB
from repro.runtime.arena import ArenaRuntime
from repro.runtime.base import LibrarySpec, RuntimeConfig


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


class CPythonRuntime(ArenaRuntime):
    """256 KiB arenas, freed when empty, plus a mark-sweep cycle collector."""

    language = "python"
    default_libraries = (
        LibrarySpec("/usr/lib/libpython3.so", 6 * MIB, touched_fraction=0.65),
        LibrarySpec("/usr/lib/python-stdlib.so", 12 * MIB, touched_fraction=0.3),
    )
    large_name = "[malloc big]"

    def __init__(self, name, config: CPythonConfig | None = None, **kwargs) -> None:
        super().__init__(name, config or CPythonConfig(), **kwargs)

    def _gc_headroom(self, size: int) -> int:
        """A cycle runs once ``gc_threshold_bytes`` were placed since the
        last one, whatever the incoming size."""
        return self.config.gc_threshold_bytes - self._allocated_since_gc
