"""Which public functions are spans, and the per-layer metrics read from them.

Naming rule for the timings: ``*_self_s`` is self time (wrapped child
spans subtracted); every other ``*_s`` is the inclusive wall time of the
outermost calls.  Counts cover warmup and measurement, except the
``faas`` platform counters, which the platform zeroes at the warmup
boundary and so cover the measured window only.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.spans import Tracer, defining_class

MIB = 1 << 20

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: List[Tuple[str, str]] = [
    ("mem.touch_calls", "count"),
    ("mem.touch_s", "s"),
    ("mem.discard_calls", "count"),
    ("mem.discard_s", "s"),
    ("mem.munmap_calls", "count"),
    ("mem.munmap_s", "s"),
    ("runtime.alloc_cohort_calls", "count"),
    ("runtime.alloc_calls", "count"),
    ("runtime.alloc_self_s", "s"),
    ("runtime.scalar_per_cohort", "ratio"),
    ("runtime.gc_calls", "count"),
    ("runtime.gc_s", "s"),
    ("runtime.boot_s", "s"),
    ("runtime.destroy_s", "s"),
    ("faas.invoke_calls", "count"),
    ("faas.invoke_self_s", "s"),
    ("faas.evict_calls", "count"),
    ("faas.evict_s", "s"),
    ("faas.cold_boots", "count"),
    ("faas.warm_starts", "count"),
    ("faas.overcommits", "count"),
    ("core.step_calls", "count"),
    ("core.step_self_s", "s"),
    ("core.reclaim_calls", "count"),
    ("core.reclaim_s", "s"),
    ("core.released_mib", "MiB"),
    ("sim.publish_calls", "count"),
    ("sim.publish_self_s", "s"),
    ("trace.events", "count"),
    ("trace.sink_s", "s"),
    ("trace.archive_write_s", "s"),
    ("trace.finalize_s", "s"),
    ("trace.archive_bytes", "bytes"),
    ("shard.round_trips", "count"),
    ("shard.pipe_bytes", "bytes"),
    ("shard.epochs", "count"),
    ("shard.worker_busy_s", "s"),
    ("shard.coordination_overhead_s", "s"),
    ("shard.recv_wait_s", "s"),
    ("shard.send_s", "s"),
    ("setup.import_s", "s"),
    ("setup.arrivals_s", "s"),
    ("unattributed_s", "s"),
    ("tracing_overhead", "ratio"),
]

RUNTIME_METHODS = ("alloc_cohort", "alloc", "collect", "full_gc", "reclaim", "boot", "destroy")


def concrete_subclasses(base: type) -> List[type]:
    """Every non-abstract class below ``base`` that is imported now."""
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if not inspect.isabstract(cls) and cls not in found:
            found.append(cls)
    return found


def _collecting(into: list):
    """Patch factory for ``__init__``: remember every constructed object."""

    def make(init):
        def collecting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            into.append(self)

        return collecting_init

    return make


def install_layers(tracer: Tracer) -> Dict[str, list]:
    """Wrap every in-process layer's public functions.

    Returns the lists the patched constructors fill: the platforms and
    Desiccant managers the run creates, read for their counters.
    """
    import repro.runtime  # noqa: F401 -- imports every concrete runtime
    from repro.core.desiccant import Desiccant
    from repro.faas.instance import FunctionInstance
    from repro.faas.platform import FaasPlatform
    from repro.mem.vmm import VirtualAddressSpace
    from repro.runtime.base import ManagedRuntime
    from repro.sim.bus import EventBus
    from repro.sim.trace import EventTraceSink
    from repro.trace import archive
    from repro.trace.generator import TraceGenerator

    for name in ("touch", "discard", "munmap", "mmap"):
        tracer.wrap(VirtualAddressSpace, name, f"mem.{name}")
    for cls in concrete_subclasses(ManagedRuntime):
        for name in RUNTIME_METHODS:
            tracer.wrap(defining_class(cls, name), name, f"runtime.{name}")
    for name in ("invoke", "thaw", "freeze", "boot", "destroy"):
        tracer.wrap(FunctionInstance, name, f"faas.{name}")
    tracer.wrap(FaasPlatform, "evict", "faas.evict")
    tracer.wrap(Desiccant, "step", "core.step")
    tracer.wrap(Desiccant, "reclaim", "core.reclaim")
    for name in ("publish", "publish_lazy"):
        tracer.wrap(defining_class(EventBus, name), name, f"sim.{name}")
    for name in ("_record", "_record_fast"):
        tracer.wrap(EventTraceSink, name, "trace.sink")
    for name in ("add_many", "close"):
        tracer.wrap(archive.ArchiveWriter, name, "trace.archive_write")
    tracer.wrap(TraceGenerator, "arrivals", "setup.arrivals")

    archive_sizes: List[int] = []

    def measuring_finalize(finalize):
        traced = tracer.span("trace.finalize", finalize)

        def finalize_archive(root, *args, **kwargs):
            composed = traced(root, *args, **kwargs)
            archive_sizes.append(
                sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())
            )
            return composed

        return finalize_archive

    tracer.patch(archive, "finalize_archive", measuring_finalize)
    collected: Dict[str, list] = {
        "platforms": [],
        "managers": [],
        "archive_sizes": archive_sizes,
    }
    tracer.patch(FaasPlatform, "__init__", _collecting(collected["platforms"]))
    tracer.patch(Desiccant, "__init__", _collecting(collected["managers"]))
    return collected


def install_coordinator(tracer: Tracer) -> None:
    """Wrap the shard coordinator's pipe calls (the 2-shard traced pass)."""
    from repro.sim import wire

    tracer.wrap(wire, "send_frame", "shard.send")
    tracer.wrap(wire, "recv_frame", "shard.recv")


def layer_metrics(tracer: Tracer, collected: Dict[str, list]) -> Dict[str, float]:
    """The in-process layer metrics of one traced replay."""
    calls, inclusive, self_time = tracer.calls, tracer.inclusive, tracer.self_time

    def n(key: str) -> int:
        return calls.get(key, 0)

    def inc(key: str) -> float:
        return inclusive.get(key, 0.0)

    def own(*keys: str) -> float:
        return sum(self_time.get(key, 0.0) for key in keys)

    platforms = collected["platforms"]
    cohorts = n("runtime.alloc_cohort")
    scalar_in_cohorts = tracer.edges.get(("runtime.alloc_cohort", "runtime.alloc"), 0)
    return {
        "mem.touch_calls": n("mem.touch"),
        "mem.touch_s": inc("mem.touch"),
        "mem.discard_calls": n("mem.discard"),
        "mem.discard_s": inc("mem.discard"),
        "mem.munmap_calls": n("mem.munmap"),
        "mem.munmap_s": inc("mem.munmap"),
        "runtime.alloc_cohort_calls": cohorts,
        "runtime.alloc_calls": n("runtime.alloc"),
        "runtime.alloc_self_s": own("runtime.alloc", "runtime.alloc_cohort"),
        "runtime.scalar_per_cohort": scalar_in_cohorts / cohorts if cohorts else 0.0,
        "runtime.gc_calls": n("runtime.collect"),
        "runtime.gc_s": inc("runtime.collect"),
        "runtime.boot_s": inc("runtime.boot"),
        "runtime.destroy_s": inc("runtime.destroy"),
        "faas.invoke_calls": n("faas.invoke"),
        "faas.invoke_self_s": own("faas.invoke"),
        "faas.evict_calls": n("faas.evict"),
        "faas.evict_s": inc("faas.evict"),
        "faas.cold_boots": sum(p.cold_boots for p in platforms),
        "faas.warm_starts": sum(p.warm_starts for p in platforms),
        "faas.overcommits": sum(p.overcommits for p in platforms),
        "core.step_calls": n("core.step"),
        "core.step_self_s": own("core.step"),
        "core.reclaim_calls": n("core.reclaim"),
        "core.reclaim_s": inc("core.reclaim"),
        "core.released_mib": sum(m.total_released_bytes for m in collected["managers"])
        / MIB,
        # publish_lazy hands its event to publish: count that event once.
        "sim.publish_calls": n("sim.publish")
        + n("sim.publish_lazy")
        - tracer.edges.get(("sim.publish_lazy", "sim.publish"), 0),
        "sim.publish_self_s": own("sim.publish", "sim.publish_lazy"),
        "trace.events": n("trace.sink"),
        "trace.sink_s": inc("trace.sink"),
        "trace.archive_write_s": inc("trace.archive_write"),
        "trace.finalize_s": inc("trace.finalize"),
        "trace.archive_bytes": sum(collected["archive_sizes"]),
        "setup.arrivals_s": inc("setup.arrivals"),
    }


def coordinator_metrics(tracer: Tracer, result) -> Dict[str, float]:
    """The shard metrics of one traced sharded replay."""
    return {
        "shard.round_trips": result.round_trips,
        "shard.pipe_bytes": result.pipe_bytes,
        "shard.epochs": result.epochs,
        "shard.worker_busy_s": result.worker_busy_seconds,
        "shard.coordination_overhead_s": result.coordination_overhead,
        "shard.recv_wait_s": tracer.inclusive.get("shard.recv", 0.0),
        "shard.send_s": tracer.inclusive.get("shard.send", 0.0),
    }
