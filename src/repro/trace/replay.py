"""Scale-factor trace replay (§5.3).

Protocol copied from the paper: warm the system up for 60 seconds at a
fixed scale factor of 15, zero the meters, then replay 180 seconds at the
scale factor under test and report cold-boot rate, throughput, CPU
utilization, and tail latency.

:func:`replay` runs the protocol on a single platform.
:func:`cluster_replay` runs it on a multi-node cluster through
:class:`~repro.faas.cluster.ShardedClusterSession` -- optionally across
worker processes (``shards > 1``) -- and reports the same statistics plus
the merged canonical event trace and its SHA-256, which is byte-identical
for every shard count.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.baselines import MemoryManager
from repro.faas.platform import FaasPlatform, PlatformConfig, Request
from repro.sim import EventTraceSink
from repro.trace.generator import TraceGenerator
from repro.trace.stats import ReplayStats, percentile


@dataclass(frozen=True)
class TraceWindow:
    """A ``[t_start, t_end) x nodes`` slice of a segmented trace archive.

    Passed to a replay config alongside ``archive_dir``, the window is
    range-read back from the finished archive -- touching only the
    segments it addresses -- and the result carries the slice's event
    count, digest, and the exact list of segments read (the I/O witness).
    """

    t_start: Optional[float] = None
    t_end: Optional[float] = None
    nodes: Optional[tuple[int, ...]] = None

    def read(self, archive_dir: str | Path) -> "WindowResult":
        from repro.sim.shard import sha256_lines
        from repro.trace.archive import ArchiveReader

        reader = ArchiveReader(archive_dir)
        events, sha = sha256_lines(
            reader.iter_window(
                t_start=self.t_start,
                t_end=self.t_end,
                nodes=self.nodes,
                verify=True,
            )
        )
        return WindowResult(
            events=events, sha256=sha, segments_read=list(reader.segments_read)
        )


@dataclass
class WindowResult:
    """What a :class:`TraceWindow` read back from the archive."""

    events: int
    sha256: str
    segments_read: List[str]


@dataclass
class ReplayConfig:
    """Window and load parameters for one replay."""

    scale_factor: float = 15.0
    warmup_seconds: float = 60.0
    warmup_scale_factor: float = 15.0
    duration_seconds: float = 180.0
    platform: PlatformConfig = field(default_factory=PlatformConfig)
    trace_seed: int = 42
    #: When set, stream a JSONL event trace of the *measurement* window
    #: (warmup excluded) to this path.  See docs/EVENT_TRACE.md.
    event_trace_path: Optional[str | Path] = None
    #: When set, additionally roll the measurement trace into a segmented
    #: archive at this directory (docs/TRACE_ARCHIVE.md).
    archive_dir: Optional[str | Path] = None
    archive_bucket_seconds: float = 60.0
    #: Range-read this slice back from the archive after the run
    #: (requires ``archive_dir``).
    window: Optional[TraceWindow] = None
    #: Run the trace sink as a pure SHA-256 stream: no stored lines, no
    #: file, no archive; the digest lands in ``ReplayResult.trace_sha256``.
    #: Mutually exclusive with ``event_trace_path`` / ``archive_dir``.
    digest_only: bool = False


@dataclass
class ReplayResult:
    """Stats plus the platform, for deeper inspection by benches."""

    stats: ReplayStats
    platform: FaasPlatform
    #: The trace sink, when ``event_trace_path`` was configured.
    trace: Optional[EventTraceSink] = None
    #: Measurement-window event count / stream digest, filled for traced
    #: runs (``digest_only`` runs carry the digest here without a file).
    trace_events: int = 0
    trace_sha256: Optional[str] = None
    archive_path: Optional[Path] = None
    archive_events: int = 0
    archive_sha256: Optional[str] = None
    window: Optional[WindowResult] = None


def replay(
    manager_factory: Callable[[], MemoryManager],
    config: Optional[ReplayConfig] = None,
    generator: Optional[TraceGenerator] = None,
) -> ReplayResult:
    """Run warmup + measurement for one policy and scale factor."""
    config = config or ReplayConfig()
    generator = generator or TraceGenerator(seed=config.trace_seed)
    manager = manager_factory()
    platform = FaasPlatform(config=config.platform, manager=manager)

    warm = generator.arrivals(config.warmup_seconds, config.warmup_scale_factor)
    platform.submit([Request(arrival=t, definition=d) for t, d in warm])
    platform.run()

    platform.reset_metrics()
    if config.window is not None and config.archive_dir is None:
        raise ValueError("window requires archive_dir")
    if config.digest_only and (
        config.event_trace_path is not None or config.archive_dir is not None
    ):
        raise ValueError(
            "digest_only replays neither store nor write the trace; drop "
            "event_trace_path/archive_dir"
        )
    writer = None
    if config.archive_dir is not None:
        from repro.trace.archive import ArchiveWriter

        writer = ArchiveWriter(
            config.archive_dir, bucket_seconds=config.archive_bucket_seconds
        )
    sink = None
    if config.digest_only:
        sink = EventTraceSink(platform.bus, digest_only=True)
    elif config.event_trace_path is not None or writer is not None:
        sink = EventTraceSink(
            platform.bus, path=config.event_trace_path, archive=writer
        )
    measure_start = max(platform.now, config.warmup_seconds)
    measured = generator.arrivals(config.duration_seconds, config.scale_factor)
    platform.submit(
        [Request(arrival=measure_start + t, definition=d) for t, d in measured]
    )
    outcomes = platform.run()
    archive_events = 0
    archive_sha256 = None
    if sink is not None:
        sink.detach()
    if writer is not None:
        # A single-platform sink sees records in canonical order, so the
        # writer's input-order digest is the composed archive digest.
        summary = writer.close(manifest=True)
        archive_events = summary["events"]
        archive_sha256 = summary["sha256"]
    window = (
        config.window.read(config.archive_dir)
        if config.window is not None
        else None
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
        trace=sink,
        trace_events=sink.count if sink is not None else 0,
        trace_sha256=sink.sha256 if sink is not None else None,
        archive_path=(
            Path(config.archive_dir) if config.archive_dir is not None else None
        ),
        archive_events=archive_events,
        archive_sha256=archive_sha256,
        window=window,
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
    #: Simulated seconds per conservative synchronization epoch (the base
    #: grid cell of the adaptive horizons).
    epoch_seconds: float = 5.0
    #: Max epochs granted per pipe message (deferred schedulers force an
    #: effective window of one).
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
    #: Simulated seconds per archive time bucket.  ``None`` sizes the
    #: buckets adaptively from the measurement window's arrival density
    #: (:func:`repro.trace.archive.adaptive_bucket_seconds`): sparse
    #: tails widen, dense traces keep the default width.
    archive_bucket_seconds: Optional[float] = None
    #: Range-read this slice back from the archive after the run
    #: (requires ``archive_dir``).
    window: Optional[TraceWindow] = None
    #: Stream per-node telemetry CSVs into this directory (flushed at
    #: every epoch barrier; identical bytes for every shard count).
    telemetry_dir: Optional[str | Path] = None
    telemetry_interval: float = 1.0
    #: Dump one cProfile per shard worker into this directory.
    profile_dir: Optional[str | Path] = None
    start_method: Optional[str] = None
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


@dataclass
class ClusterReplayResult:
    """Aggregated stats plus the merged-trace equivalence witness."""

    stats: ReplayStats
    per_node: Dict[int, dict]
    per_node_requests: List[int]
    trace_path: Optional[Path] = None
    trace_events: int = 0
    trace_sha256: Optional[str] = None
    archive_path: Optional[Path] = None
    archive_events: int = 0
    archive_sha256: Optional[str] = None
    window: Optional[WindowResult] = None
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
    them (for the static schedulers; ``least-loaded-live`` routes from
    epoch-boundary digests and is its own deterministic policy).
    """
    from repro import procenv
    from repro.faas.cluster import ClusterConfig, ShardedClusterSession
    from repro.sim import checkpoint
    from repro.trace.archive import adaptive_bucket_seconds

    config = config or ClusterReplayConfig()
    generator = generator or TraceGenerator(seed=config.trace_seed)
    tracing = config.trace or config.event_trace_path is not None
    archiving = config.archive_dir is not None
    if config.window is not None and not archiving:
        raise ValueError("window requires archive_dir")
    if config.fork and config.resume_from is None:
        raise ValueError("fork requires resume_from")
    if config.checkpoint_every is not None and config.checkpoint_dir is None:
        raise ValueError("checkpoint_every requires checkpoint_dir")
    ckpt_dir = (
        Path(config.checkpoint_dir) if config.checkpoint_dir is not None else None
    )
    # Read the header (no pickle executed) up front: a resumed traced run
    # must rewrite the *capturing* run's archive root, whose path the
    # capture recorded in its meta.
    resume_meta: Optional[Dict[str, object]] = None
    if config.resume_from is not None:
        resume_meta = checkpoint.read_header(config.resume_from)["meta"]
    # Both phases' arrivals are drawn up front (same generator call order
    # as always) so the archive bucket width can be sized from the
    # measurement window's density before any worker starts -- a pure
    # function of the submission log, hence shard-count-invariant.
    warm = generator.arrivals(config.warmup_seconds, config.warmup_scale_factor)
    measured_offsets = generator.arrivals(
        config.duration_seconds, config.scale_factor
    )
    bucket_seconds = (
        config.archive_bucket_seconds
        if config.archive_bucket_seconds is not None
        else adaptive_bucket_seconds([t for t, _ in measured_offsets])
    )
    # Out-of-pipe traces: every traced run routes through a segmented
    # archive root shared by all workers (a temporary root when only the
    # flat trace was asked for); no trace record ever crosses the
    # coordination pipes.
    ephemeral_archive = False
    if archiving:
        archive_root: Optional[Path] = Path(config.archive_dir)
    elif tracing:
        if resume_meta is not None and resume_meta.get("archive_root"):
            # Rewrite the capturing run's root: the restored hosts'
            # open segments and shipped footers all point into it.
            archive_root = Path(str(resume_meta["archive_root"]))
        elif ckpt_dir is not None:
            # Pin the root next to the checkpoints so a later resume
            # still finds the segments closed before its barrier.
            archive_root = ckpt_dir / "archive"
        else:
            archive_root = Path(tempfile.mkdtemp(prefix="repro-shard-archive-"))
            ephemeral_archive = True
    else:
        archive_root = None
    cluster_config = ClusterConfig(
        nodes=config.nodes,
        scheduler=config.scheduler,
        node_config=config.platform,
    )
    session = ShardedClusterSession(
        cluster_config,
        manager_factory,
        shards=config.shards,
        epoch_seconds=config.epoch_seconds,
        processes=config.processes,
        window_epochs=config.window_epochs,
        archive_dir=str(archive_root) if archive_root is not None else None,
        archive_bucket_seconds=bucket_seconds,
        telemetry_dir=(
            str(config.telemetry_dir) if config.telemetry_dir is not None else None
        ),
        telemetry_interval=config.telemetry_interval,
        profile_dir=(
            str(config.profile_dir) if config.profile_dir is not None else None
        ),
        start_method=config.start_method,
    )
    checkpoints: List[Path] = []

    def make_barrier(phase_name: str, digest: str, extra: Dict[str, object]):
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

    def verify_arrivals(digest: str) -> None:
        recorded = resume_meta.get("arrivals_sha256")
        if recorded is not None and recorded != digest:
            raise checkpoint.CheckpointError(
                "checkpoint-arrivals",
                f"checkpoint {config.resume_from}",
                "the regenerated arrival log is not the one the capture "
                "recorded (trace_seed/scale/duration mismatch)",
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
            warm_digest = checkpoint.arrivals_digest(warm)
            if resumed_phase == "warmup":
                verify_arrivals(warm_digest)
            session.run_phase(
                warm,
                start=0.0,
                end=config.warmup_seconds,
                start_index=start_index,
                start_pos=start_pos,
                checkpoint_every=config.checkpoint_every,
                on_barrier=make_barrier("warmup", warm_digest, {}),
            )
            # Identical for every shard count: the max shard clock is the
            # global last-event time of the (deterministic) warmup drain.
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
        measured_digest = checkpoint.arrivals_digest(measured)
        measured_meta = {"measure_start": measure_start}
        if not fresh_measurement:
            verify_arrivals(measured_digest)
        measured_barrier = make_barrier("measured", measured_digest, measured_meta)
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
        per_node_requests = list(session.router.assigned)
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
    archive_events = 0
    archive_sha256 = None
    window = None
    if archive_root is not None:
        from repro.check import check_segment_manifest
        from repro.trace.archive import finalize_archive

        try:
            # Manifest-driven compose: the workers' shipped footers stand
            # in for the per-segment verify pre-pass, and the flat JSONL
            # twin (when asked for) is written during the same single
            # streaming pass.
            composed_events, composed_sha = finalize_archive(
                archive_root, footers=footers, event_trace_path=trace_path
            )
            check_segment_manifest(footers, composed_events)
            if tracing:
                trace_events, trace_sha256 = composed_events, composed_sha
            if archiving:
                archive_events, archive_sha256 = composed_events, composed_sha
            if config.window is not None:
                window = config.window.read(archive_root)
        finally:
            if ephemeral_archive:
                shutil.rmtree(archive_root, ignore_errors=True)

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
        per_node=nodes,
        per_node_requests=per_node_requests,
        trace_path=trace_path,
        trace_events=trace_events,
        trace_sha256=trace_sha256,
        archive_path=(
            Path(config.archive_dir) if config.archive_dir is not None else None
        ),
        archive_events=archive_events,
        archive_sha256=archive_sha256,
        window=window,
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
