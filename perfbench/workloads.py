"""The benchmark's workloads: fixed input sizes, inputs generated from a seed.

Each workload is one call into a public replay entry point
(:func:`repro.trace.replay.replay` or :func:`repro.trace.replay.cluster_replay`)
in the simulator's production configuration.  The seed goes to
``TraceGenerator(seed=...)``; nothing else varies between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str  # "desiccant" | "vanilla"
    scale: float  # scale factor for warmup and measurement alike
    warmup: float  # simulated seconds
    duration: float  # simulated seconds measured
    capacity_mib: int  # per node
    nodes: int = 0  # 0: one platform through replay(); else cluster_replay()
    shards: int = 1

    @property
    def cluster(self) -> bool:
        return self.nodes > 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("azure-x15-desiccant", "desiccant", 15.0, 30.0, 60.0, 1024),
        Workload("azure-x15-vanilla", "vanilla", 15.0, 30.0, 60.0, 1024),
        Workload(
            "cluster-x40-n8-s2", "desiccant", 40.0, 20.0, 60.0, 2048, nodes=8, shards=2
        ),
    )
}


def arrival_counts(workload: Workload, seed: int) -> Tuple[int, int]:
    """(warmup, measured) arrivals, drawn independently of any replay."""
    from repro.trace.generator import TraceGenerator

    generator = TraceGenerator(seed=seed)
    return (
        len(generator.arrivals(workload.warmup, workload.scale)),
        len(generator.arrivals(workload.duration, workload.scale)),
    )


def prepare(workload: Workload, seed: int, shards: Optional[int] = None) -> Callable:
    """The workload's replay call with its inputs built, ready to time.

    ``shards`` overrides the workload's shard count (the in-process
    ``shards=1`` pass of the traced cluster run).  Cluster workloads run
    with ``trace=True``, so the merged trace goes through the segmented
    archive under the system temporary directory.
    """
    from repro.core import Desiccant, VanillaManager
    from repro.faas.platform import PlatformConfig
    from repro.trace.generator import TraceGenerator
    from repro.trace.replay import (
        ClusterReplayConfig,
        ReplayConfig,
        cluster_replay,
        replay,
    )

    factory = {"desiccant": Desiccant, "vanilla": VanillaManager}[workload.policy]
    generator = TraceGenerator(seed=seed)
    platform = PlatformConfig(capacity_bytes=workload.capacity_mib * MIB)
    window = dict(
        scale_factor=workload.scale,
        warmup_seconds=workload.warmup,
        warmup_scale_factor=workload.scale,
        duration_seconds=workload.duration,
        platform=platform,
        trace_seed=seed,
    )
    if not workload.cluster:
        config = ReplayConfig(**window)
        return lambda: replay(factory, config, generator)
    config = ClusterReplayConfig(
        nodes=workload.nodes,
        scheduler="warm-affinity",
        shards=workload.shards if shards is None else shards,
        trace=True,
        **window,
    )
    return lambda: cluster_replay(factory, config, generator)


def model_outputs(result) -> Dict[str, object]:
    """The deterministic simulated quantities a speed-only change must keep."""
    stats = result.stats
    model: Dict[str, object] = {
        "completed": stats.completed,
        "cold_boot_rate": stats.cold_boot_rate,
        "p99_latency_s": stats.p99_latency,
        "throughput_rps": stats.throughput_rps,
        "evictions": stats.evictions,
    }
    if result.trace_sha256 is not None:
        model["trace_sha256"] = result.trace_sha256
    return model
