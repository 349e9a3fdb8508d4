"""The Go runtime simulator, per the paper's §7 discussion.

Go's heap lives in a few contiguous arenas; the pacer triggers a
mark-sweep when the heap reaches ``(1 + GOGC/100)`` times the live size of
the previous cycle.  Crucially, swept memory is *not* returned to the OS:
the background scavenger hands free pages back gradually (minutes of
retention) -- and the scavenger is a goroutine, so a frozen instance never
runs it.  That is exactly the frozen-garbage shape again, and §7's recipe
applies: Desiccant runs the collector, then uses the runtime's span
structures to find free regions and releases them immediately
(:class:`~repro.runtime.arena.ArenaRuntime`'s reclaim).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.layout import KIB, MIB
from repro.runtime.arena import ArenaRuntime
from repro.runtime.base import LibrarySpec, RuntimeConfig

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


class GoRuntime(ArenaRuntime):
    """Arena allocator + GOGC-paced mark-sweep, no eager release."""

    language = "go"
    default_libraries = (
        # Statically linked: one binary image holds runtime and function.
        LibrarySpec("/var/task/handler-go", 16 * MIB, touched_fraction=0.5),
    )
    arena_name = "go-arena"
    large_name = "[go large]"
    arena_size = ARENA_SIZE
    unmap_empty_arenas = False  # the sweeper keeps spans for reuse

    def __init__(self, name, config: GoConfig | None = None, **kwargs) -> None:
        super().__init__(name, config or GoConfig(), **kwargs)

    @property
    def _next_gc(self) -> int:
        """The pacer's heap goal, set by the last cycle's live bytes."""
        cfg: GoConfig = self.config  # type: ignore[assignment]
        return max(cfg.min_trigger, int(self.last_gc_live_bytes * (1 + cfg.gogc / 100.0)))

    def _gc_headroom(self, size: int) -> int:
        """The pacer collects before the heap would reach its goal."""
        return self._next_gc - self._heap_used() - size

    def scavenge(self, idle_seconds: float) -> int:
        """The background scavenger: release free pages only after the
        retention period -- i.e. effectively never for a frozen instance.
        Returns pages released."""
        cfg: GoConfig = self.config  # type: ignore[assignment]
        if idle_seconds < cfg.scavenger_retention_seconds:
            return 0
        return self._release_free_pages()
