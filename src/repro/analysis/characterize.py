"""Single-instance characterization harness (§3.1, §5.2, §5.5, §5.6).

Protocol copied from the paper: execute a function 100 times in the same
instance(s), sampling USS at every exit point (where the platform would
freeze).  Chained functions run each stage in its own container and report
accumulated consumption.  Policies:

* ``vanilla``   -- freeze semantics only.
* ``eager``     -- aggressive full GC after every stage exit.
* ``desiccant`` -- vanilla during the run, Desiccant reclaim at the end
  (the §5.2 setting: memory became scarce, the frozen instance is chosen).
* The *ideal* series (live bytes + genuinely-used native memory) is
  recorded alongside every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.choices import POLICIES
from repro.mem.layout import MIB
from repro.mem.accounting import measure
from repro.mem.physical import PhysicalMemory
from repro.core.profiles import ProfileStore
from repro.core.reclaimer import ReclaimReport, reclaim_instance
from repro.faas.instance import FunctionInstance
from repro.faas.libraries import SharedLibraryPool
from repro.runtime.cpython import CPythonRuntime
from repro.runtime.hotspot import HotSpotRuntime
from repro.runtime.v8 import V8Runtime
from repro.workloads.model import FunctionDefinition
from repro.workloads.registry import get_definition

_RUNTIME_CLASSES = (HotSpotRuntime, V8Runtime, CPythonRuntime)


@dataclass
class SingleInstanceRun:
    """Series and endpoints from one characterization run."""

    definition: FunctionDefinition
    policy: str
    uss_series: List[int] = field(default_factory=list)
    ideal_series: List[int] = field(default_factory=list)
    latency_series: List[float] = field(default_factory=list)
    instances: List[FunctionInstance] = field(default_factory=list)
    reclaim_reports: List[ReclaimReport] = field(default_factory=list)

    @property
    def final_uss(self) -> int:
        return self.uss_series[-1]

    @property
    def final_ideal(self) -> int:
        return self.ideal_series[-1]

    def ratios(self) -> List[float]:
        """Per-iteration USS / ideal (the Figure 1 quantity)."""
        return [u / i for u, i in zip(self.uss_series, self.ideal_series)]

    @property
    def avg_ratio(self) -> float:
        ratios = self.ratios()
        return sum(ratios) / len(ratios)

    @property
    def max_ratio(self) -> float:
        return max(self.ratios())

    def destroy(self) -> None:
        for instance in self.instances:
            instance.destroy()


def _new_instances(
    definition: FunctionDefinition,
    memory_budget: int,
    physical: PhysicalMemory,
    shared_files,
    seed: int,
) -> List[FunctionInstance]:
    instances = []
    for stage in definition.stages:
        instance = FunctionInstance(
            stage,
            memory_budget=memory_budget,
            physical=physical,
            shared_files=shared_files,
            seed=seed,
        )
        instance.boot()
        instances.append(instance)
    return instances


def _run_iteration(
    instances: List[FunctionInstance],
    now: float,
    eager: bool,
) -> Tuple[float, float]:
    """One end-to-end execution across all stages; returns (wall, now)."""
    wall = 0.0
    handoff: Optional[Tuple[FunctionInstance, int]] = None
    for instance in instances:
        if instance.frozen_since is not None:
            wall += instance.thaw(now)
        if handoff is not None:
            producer, oid = handoff
            producer.runtime.free_persistent(oid)
            handoff = None
        result = instance.invoke(now)
        wall += result.cpu_seconds
        if result.handoff_oid is not None:
            handoff = (instance, result.handoff_oid)
        if eager:
            wall += instance.runtime.full_gc(aggressive=True)
        instance.freeze(now + wall)
    return wall, now + wall


def run_single(
    definition: FunctionDefinition | str,
    policy: str = "vanilla",
    iterations: int = 100,
    memory_budget: int = 256 * MIB,
    shared_libraries: bool = True,
    seed: int = 0,
    reclaim_aggressive: bool = False,
    unmap_libraries: bool = True,
) -> SingleInstanceRun:
    """The §3.1 / §5.2 protocol for one function under one policy."""
    if isinstance(definition, str):
        definition = get_definition(definition)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; pick from {POLICIES}")
    physical = PhysicalMemory()
    shared_files = None
    if shared_libraries:
        pool = SharedLibraryPool(physical, runtime_classes=_RUNTIME_CLASSES)
        shared_files = pool.files
    instances = _new_instances(definition, memory_budget, physical, shared_files, seed)
    run = SingleInstanceRun(definition=definition, policy=policy, instances=instances)

    now = 0.0
    for _ in range(iterations):
        wall, now = _run_iteration(instances, now, eager=(policy == "eager"))
        run.latency_series.append(wall)
        run.uss_series.append(sum(i.uss() for i in instances))
        run.ideal_series.append(sum(i.ideal_uss() for i in instances))
        now += 1.0  # think time between invocations (instances stay frozen)

    if policy == "desiccant":
        profiles = ProfileStore()
        for instance in instances:
            report = reclaim_instance(
                instance,
                profiles,
                aggressive=reclaim_aggressive,
                unmap_libraries=unmap_libraries,
            )
            run.reclaim_reports.append(report)
        run.uss_series.append(sum(i.uss() for i in instances))
        run.ideal_series.append(sum(i.ideal_uss() for i in instances))
    return run


def run_overhead_experiment(
    definition: FunctionDefinition | str,
    reclaimer: str = "desiccant",
    warm_iterations: int = 130,
    probe_iterations: int = 10,
    memory_budget: int = 256 * MIB,
    seed: int = 0,
) -> Tuple[float, float]:
    """The §5.6 protocol: run 130 times, reclaim, run 10 more.

    ``reclaimer`` is ``"desiccant"`` (non-aggressive), ``"aggressive"``
    (the unmodified GC interface, deopting JIT code), or ``"swap"``.
    Returns ``(latency_before, latency_after)`` averaged over the last
    ``probe_iterations`` on each side of the reclamation.
    """
    if isinstance(definition, str):
        definition = get_definition(definition)
    physical = PhysicalMemory()
    pool = SharedLibraryPool(physical, runtime_classes=_RUNTIME_CLASSES)
    instances = _new_instances(definition, memory_budget, physical, pool.files, seed)

    now = 0.0
    latencies: List[float] = []
    for _ in range(warm_iterations):
        wall, now = _run_iteration(instances, now, eager=False)
        latencies.append(wall)
        now += 1.0
    before = sum(latencies[-probe_iterations:]) / probe_iterations

    profiles = ProfileStore()
    for instance in instances:
        if reclaimer == "swap":
            desiccant_like = reclaim_would_release(instance)
            _swap_out_amount(instance, desiccant_like)
        elif reclaimer == "aggressive":
            reclaim_instance(instance, profiles, aggressive=True)
        elif reclaimer == "desiccant":
            reclaim_instance(instance, profiles, aggressive=False)
        else:
            raise ValueError(f"unknown reclaimer {reclaimer!r}")

    after_latencies: List[float] = []
    for _ in range(probe_iterations):
        wall, now = _run_iteration(instances, now, eager=False)
        after_latencies.append(wall)
        now += 1.0
    after = sum(after_latencies) / probe_iterations
    for instance in instances:
        instance.destroy()
    return before, after


def reclaim_would_release(instance: FunctionInstance) -> int:
    """Estimate how much Desiccant would release: resident-but-dead heap
    memory (used for the like-for-like swap comparison in §5.6)."""
    stats = instance.runtime.heap_stats()
    live = instance.runtime.live_bytes()
    return max(0, instance.heap_resident_bytes() - live)


def _swap_out_amount(instance: FunctionInstance, target_bytes: int) -> int:
    """Swap out ~``target_bytes`` of the instance's anonymous pages.

    The swap mechanism has no runtime semantics: it walks mappings in
    address order and pushes private pages out until enough memory has
    actually moved to the swap device, hitting live pages as readily as
    dead ones (dropped clean file pages don't count toward the target --
    they released nothing swap-specific).
    """
    space = instance.runtime.space
    swap = space.physical.swap
    swapped_before = swap.pages
    for mapping in list(space.mappings()):
        if (swap.pages - swapped_before) * 4096 >= target_bytes:
            break
        space.swap_out_range(mapping.start, mapping.length)
    return (swap.pages - swapped_before) * 4096


def run_concurrent_instances(
    definition: FunctionDefinition | str = "fft",
    count: int = 1,
    iterations: int = 30,
    memory_budget: int = 256 * MIB,
    desiccant: bool = True,
    seed: int = 0,
) -> Dict[str, float]:
    """The Figure 8 setup: ``count`` instances of the same function on one
    node sharing library files (no warm overlay cache), measured by
    per-instance RSS and PSS."""
    if isinstance(definition, str):
        definition = get_definition(definition)
    if definition.is_chain:
        raise ValueError("figure 8 uses single-stage functions")
    physical = PhysicalMemory()
    pool = SharedLibraryPool(
        physical, runtime_classes=_RUNTIME_CLASSES, warm_host=False
    )
    spec = definition.stages[0]
    instances = [
        FunctionInstance(
            spec,
            memory_budget=memory_budget,
            physical=physical,
            shared_files=pool.files,
            seed=seed + k,
        )
        for k in range(count)
    ]
    now = 0.0
    for instance in instances:
        instance.boot()
    for _ in range(iterations):
        for instance in instances:
            if instance.frozen_since is not None:
                instance.thaw(now)
            instance.invoke(now)
            instance.freeze(now)
        now += 1.0
    if desiccant:
        profiles = ProfileStore()
        for instance in instances:
            reclaim_instance(instance, profiles)
    reports = [measure(i.runtime.space) for i in instances]
    result = {
        "rss_per_instance": sum(r.rss for r in reports) / count,
        "pss_per_instance": sum(r.pss for r in reports) / count,
        "uss_per_instance": sum(r.uss for r in reports) / count,
    }
    for instance in instances:
        instance.destroy()
    return result
