"""Scale-factor trace replay (§5.3).

Protocol copied from the paper: warm the system up for 60 seconds at a
fixed scale factor of 15, zero the meters, then replay 180 seconds at the
scale factor under test and report cold-boot rate, throughput, CPU
utilization, and tail latency.

:func:`replay` runs the protocol on a single platform.
:func:`cluster_replay` runs it on a multi-node cluster through
:class:`~repro.faas.cluster.ShardedClusterSession`, the one cluster
engine -- in-process at one shard, across worker processes above that --
and reports the same statistics plus the merged canonical event trace
and its SHA-256, which is byte-identical for every shard count.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.baselines import MemoryManager
from repro.faas.platform import FaasPlatform, PlatformConfig, Request
from repro.sim import EventTraceSink
from repro.trace.generator import TraceGenerator
from repro.trace.stats import ReplayStats, percentile


@contextmanager
def _archive_root(root: Optional[str | Path]) -> Iterator[Path]:
    """``root`` as a path, or a temporary archive root when it is
    ``None``, removed however the run ends."""
    if root is not None:
        yield Path(root)
        return
    temporary = Path(tempfile.mkdtemp(prefix="repro-trace-archive-"))
    try:
        yield temporary
    finally:
        shutil.rmtree(temporary, ignore_errors=True)


@dataclass
class ReplayConfig:
    """Window and load parameters for one replay."""

    scale_factor: float = 15.0
    warmup_seconds: float = 60.0
    warmup_scale_factor: float = 15.0
    duration_seconds: float = 180.0
    platform: PlatformConfig = field(default_factory=PlatformConfig)
    trace_seed: int = 42
    #: When set, write a JSONL event trace of the *measurement* window
    #: (warmup excluded) to this path.  See docs/EVENT_TRACE.md.
    event_trace_path: Optional[str | Path] = None
    #: Keep the segmented archive the trace is written through at this
    #: directory (docs/TRACE_ARCHIVE.md).  A run that sets only
    #: ``event_trace_path`` writes through a temporary root.
    archive_dir: Optional[str | Path] = None
    archive_bucket_seconds: float = 60.0


@dataclass
class ReplayResult:
    """Stats plus the platform, for deeper inspection by benches."""

    stats: ReplayStats
    platform: FaasPlatform
    #: Measurement-window event count and the SHA-256 of its trace as
    #: composed from the archive -- the bytes of ``event_trace_path``.
    #: ``0`` and ``None`` for an untraced run.
    trace_events: int = 0
    trace_sha256: Optional[str] = None
    archive_path: Optional[Path] = None


def replay(
    manager_factory: Callable[[], MemoryManager],
    config: Optional[ReplayConfig] = None,
    generator: Optional[TraceGenerator] = None,
) -> ReplayResult:
    """Run warmup + measurement for one policy and scale factor.

    A traced run writes the measurement window through an
    :class:`~repro.trace.archive.ArchiveWriter` and composes the archive,
    and the flat trace with it, as :func:`cluster_replay` does.
    """
    config = config or ReplayConfig()
    generator = generator or TraceGenerator(seed=config.trace_seed)
    manager = manager_factory()
    platform = FaasPlatform(config=config.platform, manager=manager)

    warm = generator.arrivals(config.warmup_seconds, config.warmup_scale_factor)
    platform.submit([Request(arrival=t, definition=d) for t, d in warm])
    platform.run()

    platform.reset_metrics()
    traced = config.event_trace_path is not None or config.archive_dir is not None
    root_context = _archive_root(config.archive_dir) if traced else nullcontext()
    trace_events, trace_sha256 = 0, None
    with root_context as root:
        if root is not None:
            from repro.trace.archive import ArchiveWriter, finalize_archive

            writer = ArchiveWriter(root, bucket_seconds=config.archive_bucket_seconds)
            sink = EventTraceSink(platform.bus, archive=writer)
        measure_start = max(platform.now, config.warmup_seconds)
        measured = generator.arrivals(config.duration_seconds, config.scale_factor)
        platform.submit(
            [Request(arrival=measure_start + t, definition=d) for t, d in measured]
        )
        outcomes = platform.run()
        if root is not None:
            sink.detach()
            trace_events, trace_sha256 = finalize_archive(
                root,
                config.archive_bucket_seconds,
                footers=writer.close()["segments"],
                event_trace_path=config.event_trace_path,
            )

    stats = ReplayStats.from_platform(
        platform,
        outcomes,
        duration_seconds=config.duration_seconds,
        policy=getattr(manager, "name", type(manager).__name__),
        scale_factor=config.scale_factor,
    )
    return ReplayResult(
        stats=stats,
        platform=platform,
        trace_events=trace_events,
        trace_sha256=trace_sha256,
        archive_path=(
            Path(config.archive_dir) if config.archive_dir is not None else None
        ),
    )


# ----------------------------------------------------------------- cluster


@dataclass
class ClusterReplayConfig:
    """Window, load, and sharding parameters for one cluster replay."""

    nodes: int = 8
    scheduler: str = "warm-affinity"
    #: Worker processes to partition the nodes across (1 = the in-process
    #: serial twin, driven through the identical epoch protocol).
    shards: int = 1
    #: Simulated seconds per cell of the fixed conservative epoch grid.
    epoch_seconds: float = 5.0
    #: Max epochs granted per pipe message.
    window_epochs: int = 32
    scale_factor: float = 15.0
    warmup_seconds: float = 60.0
    warmup_scale_factor: float = 15.0
    duration_seconds: float = 180.0
    #: Per-node platform config (deep-copied per node, seeds offset).
    platform: PlatformConfig = field(default_factory=PlatformConfig)
    trace_seed: int = 42
    #: Collect the measurement window's canonical event trace (always on
    #: when ``event_trace_path`` is set), composed into one ``(t, node,
    #: seq)``-ordered stream whose SHA-256 the result carries -- the
    #: cross-shard equivalence witness.  Trace records never cross the
    #: coordination pipes: workers write node-canonical archive segments
    #: into a shared root (a temporary one if ``archive_dir`` is unset)
    #: and ship only per-segment footers; the coordinator composes once.
    trace: bool = False
    event_trace_path: Optional[str | Path] = None
    #: Keep the segmented archive at this shared directory: each shard
    #: worker writes its own nodes' segments and the coordinator
    #: finalizes from the shipped footers (docs/TRACE_ARCHIVE.md).
    archive_dir: Optional[str | Path] = None
    archive_bucket_seconds: float = 60.0
    #: Stream per-node telemetry CSVs into this directory (flushed at
    #: every epoch barrier; identical bytes for every shard count).
    telemetry_dir: Optional[str | Path] = None
    #: Force worker processes on/off (default: processes iff shards > 1).
    processes: Optional[bool] = None
    #: Capture checkpoints into this directory: ``warmup-<pos>.ckpt`` and
    #: ``measured-<pos>.ckpt`` at window barriers, plus a
    #: ``measure-start.ckpt`` at the warmup/measurement boundary (the one
    #: a forked what-if leg resumes from to skip the warmup prefix
    #: entirely).  See docs/CHECKPOINTS.md.
    checkpoint_dir: Optional[str | Path] = None
    #: Align barriers (and captures) to every N epochs.
    checkpoint_every: Optional[int] = None
    #: Restore this checkpoint and run only the remaining suffix.  The
    #: run's parameters must match the capturing run's
    #: (``checkpoint-config``) and the regenerated arrival log must hash
    #: to what the capture recorded (``checkpoint-arrivals``).
    resume_from: Optional[str | Path] = None
    #: With ``resume_from``: what-if divergence to apply at the barrier
    #: -- ``{"manager_factory": ..., "scheduler": ..., "reseed": ...}``
    #: (see :meth:`repro.faas.cluster.ShardedClusterSession.restore`).
    fork: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        # Building a cluster config loads the cluster engine, so the
        # timed cluster_replay call never imports it and a single
        # platform's replay never does.  The engine's checks run here
        # too: a config it would refuse fails before any arrival is drawn.
        from repro.faas.cluster import check_parameters

        check_parameters(
            self.nodes, self.scheduler, self.epoch_seconds, self.window_epochs
        )
        if self.fork and self.resume_from is None:
            raise ValueError("fork requires resume_from")
        if self.checkpoint_every is not None and self.checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")


@dataclass
class ClusterReplayResult:
    """Aggregated stats plus the merged-trace equivalence witness."""

    stats: ReplayStats
    trace_path: Optional[Path] = None
    #: The merged trace's event count and SHA-256, composed from the
    #: archive; ``0`` and ``None`` for an untraced run.
    trace_events: int = 0
    trace_sha256: Optional[str] = None
    archive_path: Optional[Path] = None
    epochs: int = 0
    events: int = 0
    #: Coordination-cost accounting (see docs/BENCHMARKS.md):
    #: barrier exchanges (windows + marks + finish), exact framed bytes
    #: through the worker pipes, coordinator wall clock, the slowest
    #: worker's kernel-busy wall, and their difference -- the wall time
    #: spent coordinating rather than simulating.
    round_trips: int = 0
    pipe_bytes: int = 0
    coordinator_wall_seconds: float = 0.0
    worker_busy_seconds: float = 0.0
    coordination_overhead: float = 0.0
    #: Checkpoints this run captured, in capture order.
    checkpoints: List[Path] = field(default_factory=list)
    #: Phase the run resumed into (``"warmup"``/``"measured"``), or
    #: ``None`` for a from-scratch run.
    resumed_phase: Optional[str] = None
    #: Simulated time the measurement window started at.
    measure_start: float = 0.0


def cluster_replay(
    manager_factory: Callable[[], MemoryManager],
    config: Optional[ClusterReplayConfig] = None,
    generator: Optional[TraceGenerator] = None,
) -> ClusterReplayResult:
    """Warmup + measurement on a (possibly process-sharded) cluster.

    Both phases run through the conservative epoch loop regardless of
    shard count, so the only variable between a ``shards=1`` and a
    ``shards=N`` run is how nodes were partitioned across kernels -- and
    the merged canonical trace digest is byte-identical across all of
    them.
    """
    from repro import procenv
    from repro.check import check_segment_manifest
    from repro.faas.cluster import ClusterConfig, ShardedClusterSession
    from repro.sim import checkpoint
    from repro.trace.archive import finalize_archive

    config = config or ClusterReplayConfig()
    generator = generator or TraceGenerator(seed=config.trace_seed)
    tracing = config.trace or config.event_trace_path is not None
    archiving = config.archive_dir is not None
    ckpt_dir = (
        Path(config.checkpoint_dir) if config.checkpoint_dir is not None else None
    )
    # Verify the checkpoint (no pickle executed) up front: a resumed
    # traced run must rewrite the *capturing* run's archive root, whose
    # path the capture recorded in its meta, and a capture this build
    # refuses fails by name before any arrivals are drawn.
    resume_meta: Optional[Dict[str, object]] = None
    if config.resume_from is not None:
        resume_meta = checkpoint.check_checkpoint(config.resume_from)["meta"]
    # Both phases' arrivals are drawn up front, warmup first: a resume
    # into the measured phase still needs the measured draw to follow
    # the warmup draw.
    warm = generator.arrivals(config.warmup_seconds, config.warmup_scale_factor)
    measured_offsets = generator.arrivals(
        config.duration_seconds, config.scale_factor
    )
    checkpoints: List[Path] = []

    def make_barrier(
        phase_name: str, digest: Optional[str], extra: Dict[str, object]
    ):
        if ckpt_dir is None:
            return None

        def on_barrier(s: "ShardedClusterSession", index: int, pos: int) -> None:
            path = ckpt_dir / f"{phase_name}-{pos:06d}.ckpt"
            s.capture(
                path,
                index,
                pos,
                meta={
                    "phase": phase_name,
                    "arrivals_sha256": digest,
                    "archive_root": (
                        str(archive_root) if archive_root is not None else None
                    ),
                    **extra,
                },
            )
            checkpoints.append(path)

        return on_barrier

    def phase_digest(arrivals, resumed: bool) -> Optional[str]:
        """The arrival log's digest, computed only where it is read: in a
        capture's meta, or to check a resume against the capture's."""
        if ckpt_dir is None and not resumed:
            return None
        digest = checkpoint.arrivals_digest(arrivals)
        recorded = resume_meta.get("arrivals_sha256") if resumed else None
        if recorded is not None and recorded != digest:
            raise checkpoint.CheckpointError(
                "checkpoint-arrivals",
                f"checkpoint {config.resume_from}",
                "the regenerated arrival log is not the one the capture "
                "recorded (trace_seed/scale/duration mismatch)",
            )
        return digest

    # Out-of-pipe traces: every traced run routes through a segmented
    # archive root shared by all workers (a temporary root when only the
    # flat trace was asked for); no trace record ever crosses the
    # coordination pipes.
    pinned_root: Optional[Path] = None
    if archiving:
        pinned_root = Path(config.archive_dir)
    elif resume_meta is not None and resume_meta.get("archive_root"):
        # Rewrite the capturing run's root: the restored hosts' open
        # segments and shipped footers all point into it.
        pinned_root = Path(str(resume_meta["archive_root"]))
    elif ckpt_dir is not None:
        # Pin the root next to the checkpoints so a later resume still
        # finds the segments closed before its barrier.
        pinned_root = ckpt_dir / "archive"
    # A temporary root is removed however the run ends, including a
    # session that refuses to start.
    root_context = (
        _archive_root(pinned_root) if tracing or archiving else nullcontext()
    )
    with root_context as archive_root:
        session = ShardedClusterSession(
            ClusterConfig(
                nodes=config.nodes,
                scheduler=config.scheduler,
                node_config=config.platform,
            ),
            manager_factory,
            shards=config.shards,
            epoch_seconds=config.epoch_seconds,
            processes=config.processes,
            window_epochs=config.window_epochs,
            archive_dir=str(archive_root) if archive_root is not None else None,
            archive_bucket_seconds=config.archive_bucket_seconds,
            telemetry_dir=(
                str(config.telemetry_dir)
                if config.telemetry_dir is not None
                else None
            ),
        )
        resumed_phase: Optional[str] = None
        coordinator_started = procenv.wall_clock()
        try:
            start_index = start_pos = 0
            if config.resume_from is not None:
                cursor = session.restore(config.resume_from, fork=config.fork)
                resume_meta = cursor["meta"]
                resumed_phase = str(resume_meta.get("phase", "measured"))
                start_index, start_pos = cursor["index"], cursor["pos"]
            if resumed_phase in (None, "warmup"):
                warm_digest = phase_digest(warm, resumed=resumed_phase == "warmup")
                session.run_phase(
                    warm,
                    start=0.0,
                    end=config.warmup_seconds,
                    start_index=start_index,
                    start_pos=start_pos,
                    checkpoint_every=config.checkpoint_every,
                    on_barrier=make_barrier("warmup", warm_digest, {}),
                )
                # Identical for every shard count: the max shard clock is
                # the global last-event time of the (deterministic) warmup
                # drain.
                measure_start = max(session.clock, config.warmup_seconds)
                session.mark("reset-metrics")
                if archive_root is not None:
                    session.mark("start-trace")
                start_index = start_pos = 0
                fresh_measurement = True
            else:
                measure_start = float(resume_meta["measure_start"])
                fresh_measurement = False
            measured = [(measure_start + t, d) for t, d in measured_offsets]
            measured_digest = phase_digest(measured, resumed=not fresh_measurement)
            measured_meta = {"measure_start": measure_start}
            measured_barrier = make_barrier(
                "measured", measured_digest, measured_meta
            )
            if ckpt_dir is not None and fresh_measurement:
                # The warmup/measurement boundary: the checkpoint a forked
                # what-if leg resumes from to skip the warmup prefix.
                path = ckpt_dir / "measure-start.ckpt"
                session.capture(
                    path,
                    0,
                    0,
                    meta={
                        "phase": "measured",
                        "arrivals_sha256": measured_digest,
                        "archive_root": (
                            str(archive_root) if archive_root is not None else None
                        ),
                        **measured_meta,
                    },
                )
                checkpoints.append(path)
            session.run_phase(
                measured,
                start=measure_start,
                end=measure_start + config.duration_seconds,
                start_index=start_index,
                start_pos=start_pos,
                checkpoint_every=config.checkpoint_every,
                on_barrier=measured_barrier,
            )
            nodes = session.finish()
            epochs, events = session.epochs, session.events
            round_trips = session.round_trips
            pipe_bytes = session.pipe_bytes
            worker_busy = session.worker_busy_seconds
            footers = session.archive_footers
        finally:
            session.close()
        coordinator_wall = procenv.wall_clock() - coordinator_started
        trace_path = (
            Path(config.event_trace_path)
            if config.event_trace_path is not None
            else None
        )
        trace_events = 0
        trace_sha256 = None
        if archive_root is not None:
            # Manifest-driven compose: the workers' shipped footers stand
            # in for the per-segment verify pre-pass, and the flat JSONL
            # twin (when asked for) is written during the same single
            # streaming pass.
            trace_events, trace_sha256 = finalize_archive(
                archive_root,
                config.archive_bucket_seconds,
                footers=footers,
                event_trace_path=trace_path,
            )
            check_segment_manifest(footers, trace_events)

    outcomes = [pair for node in sorted(nodes) for pair in nodes[node]["outcomes"]]
    latencies = sorted(latency for latency, _ in outcomes) or [0.0]
    completed = len(outcomes)
    cold = sum(cold_boots for _, cold_boots in outcomes)
    busy: Dict[str, float] = {}
    for info in nodes.values():
        for category, seconds in info["cpu_busy"].items():
            busy[category] = busy.get(category, 0.0) + seconds
    total_busy = sum(busy.values())
    cluster_cpus = config.platform.cpus * config.nodes
    name_factory = manager_factory
    if config.fork and config.fork.get("manager_factory") is not None:
        name_factory = config.fork["manager_factory"]
    manager = name_factory()
    stats = ReplayStats(
        policy=getattr(manager, "name", type(manager).__name__),
        scale_factor=config.scale_factor,
        duration_seconds=config.duration_seconds,
        completed=completed,
        cold_boots=cold,
        evictions=sum(info["evictions"] for info in nodes.values()),
        cold_boot_rate=cold / completed if completed else 0.0,
        throughput_rps=completed / config.duration_seconds,
        cpu_utilization=min(
            1.0, total_busy / (config.duration_seconds * cluster_cpus)
        ),
        reclaim_cpu_fraction=busy.get("reclaim", 0.0) / total_busy if total_busy else 0.0,
        eager_gc_cpu_fraction=busy.get("eager_gc", 0.0) / total_busy if total_busy else 0.0,
        p50_latency=percentile(latencies, 50),
        p90_latency=percentile(latencies, 90),
        p95_latency=percentile(latencies, 95),
        p99_latency=percentile(latencies, 99),
    )
    return ClusterReplayResult(
        stats=stats,
        trace_path=trace_path,
        trace_events=trace_events,
        trace_sha256=trace_sha256,
        archive_path=(
            Path(config.archive_dir) if config.archive_dir is not None else None
        ),
        epochs=epochs,
        events=events,
        round_trips=round_trips,
        pipe_bytes=pipe_bytes,
        coordinator_wall_seconds=coordinator_wall,
        worker_busy_seconds=worker_busy,
        coordination_overhead=max(0.0, coordinator_wall - worker_busy),
        checkpoints=checkpoints,
        resumed_phase=resumed_phase,
        measure_start=measure_start,
    )
