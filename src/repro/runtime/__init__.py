"""Managed-runtime simulators (HotSpot, G1, V8, CPython, Go).

Each runtime allocates objects from a :class:`repro.mem.VirtualAddressSpace`
through its own heap organization and collection algorithm, reproducing the
memory-management policies §3.2 of the paper dissects, and §7's claim that
Desiccant carries over to other collectors and allocators:

* ``hotspot`` -- generational serial GC with contiguous spaces, free-ratio
  resizing, and the commit-but-never-release behaviour that strands free
  pages inside the heap.
* ``g1``      -- HotSpot's region-based garbage-first collector (§7).
* ``v8``      -- semispace scavenger + mark-sweep over 256 KiB chunks, with
  the allocation-rate doubling policy that never shrinks under intermittent
  execution, weak-ref'd JIT code, and per-chunk metadata pages.
* ``cpython`` and ``golang`` -- the §7 arena runtimes (``arena``): CPython's
  256 KiB arenas freed only when empty, Go's GOGC-paced arenas that only a
  background scavenger releases.

Every runtime reclaims by one Algorithm 1 (:meth:`ManagedRuntime.reclaim`).
"""

from repro._lazy import export

__all__ = export(
    __name__,
    {
        "repro.runtime.base": (
            "HeapStats",
            "ManagedRuntime",
            "OutOfMemory",
            "ReclaimOutcome",
            "RuntimeConfig",
        ),
        "repro.runtime.object_model": ("HeapObject", "ObjectGraph"),
        "repro.runtime.hotspot": ("HotSpotRuntime",),
        "repro.runtime.v8": ("V8Runtime",),
        "repro.runtime.cpython": ("CPythonRuntime",),
        "repro.runtime.golang": ("GoRuntime",),
        "repro.runtime.g1": ("G1Runtime",),
    },
)
