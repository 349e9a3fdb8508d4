"""Parallel benchmark fan-out: independent runs across worker processes.

The evaluation grid is embarrassingly parallel -- every (figure cell,
policy, scale) characterization or replay run builds its own
:class:`~repro.mem.physical.PhysicalMemory`, address spaces, and
deterministic ``RngStream``s (seeded by name, PR 1's kernel), so runs share
no state and their *metrics* are identical whether executed serially or
fanned out.  Only the wall/CPU timings attached to each run vary with the
machine.

Entry points:

* :func:`execute_spec` -- run one :class:`BenchSpec`, returning its metrics
  plus wall/CPU timings (top-level so it pickles into worker processes),
* :func:`run_benchmarks` -- fan a list of specs across a
  ``ProcessPoolExecutor`` (``jobs=1`` degrades to a serial loop),
* :func:`run_vmm_microbench` / :func:`compare_micro` -- the bulk
  touch/discard microbenchmark against the per-page reference oracle, and
  the regression check CI applies against the committed ``BENCH_vmm.json``,
* :func:`build_replay_macro` / :func:`compare_replay` /
  :func:`verify_trace_identity` -- the Azure-scale replay macro suite: each
  size runs one traced single-platform leg (plus optional cluster,
  sharded and forked legs), every equivalence pair's event-trace digests
  must be byte-identical, and CI gates each leg's wall time, digest and
  coordination cost against the committed ``BENCH_replay.json``.  Every
  leg encodes its trace through the one line encoder,
  :mod:`repro.trace.encode`.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import re
import shutil
import tempfile
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import procenv
from repro.mem.layout import MIB, PAGE_SIZE

#: Policies a replay spec accepts (characterize accepts POLICIES as well).
REPLAY_POLICIES = ("vanilla", "eager", "desiccant")

#: The macro replay sizes (§5.3 at increasing Azure-trace scale).  Each
#: size fixes (scale factor, measured duration, warmup, node capacity).
REPLAY_SIZES: Dict[str, Dict[str, float]] = {
    "small": {"scale": 8.0, "duration": 30.0, "warmup": 15.0, "capacity_mib": 768},
    "medium": {"scale": 15.0, "duration": 60.0, "warmup": 30.0, "capacity_mib": 1024},
    "large": {"scale": 40.0, "duration": 120.0, "warmup": 45.0, "capacity_mib": 2048},
}


@dataclass(frozen=True)
class BenchSpec:
    """One independent benchmark cell.

    ``kind`` selects the protocol: ``"characterize"`` runs the §3.1/§5.2
    single-instance loop for function ``name``; ``"replay"`` runs the §5.3
    Azure-style trace (``name`` is unused); ``"micro"`` runs the VMM
    touch/discard microbenchmark.  Frozen so it hashes and pickles cleanly.
    """

    kind: str
    name: str = ""
    policy: str = "vanilla"
    iterations: int = 30
    budget_mib: int = 256
    scale: float = 5.0
    duration: float = 20.0
    warmup: float = 10.0
    capacity_mib: int = 1024
    seed: int = 42
    size_mib: int = 200
    repeats: int = 3
    #: Stream the replay's event trace to a scratch file and report its
    #: SHA-256 -- the equivalence witness between paired legs and the
    #: committed baseline.
    trace: bool = False
    #: Replay on a cluster of this many nodes (0 = single platform).
    nodes: int = 0
    #: Worker processes for a cluster replay (1 = the in-process serial
    #: twin; the digest gate pins every shard count to it).
    shards: int = 1
    #: Cluster front-end scheduler (cluster replays only).
    scheduler: str = "warm-affinity"
    #: Simulated seconds per conservative epoch (cluster replays only).
    epoch: float = 5.0
    #: Also roll the traced replay into a segmented archive and report
    #: archive metrics (compressed bytes, compression ratio, pack
    #: throughput, windowed-read latency).  Requires ``trace``.
    archive: bool = False
    #: Checkpoint-fork sweep leg (cluster replays only): run the replay
    #: from scratch capturing a ``measure-start`` checkpoint, then run a
    #: forked twin that resumes from it -- skipping the warmup prefix --
    #: and gate the forked leg's merged-trace digest against the
    #: from-scratch run's (docs/CHECKPOINTS.md).
    fork: bool = False

    @property
    def label(self) -> str:
        if self.kind == "characterize":
            return f"characterize:{self.name}:{self.policy}:i{self.iterations}"
        if self.kind == "replay":
            label = f"replay:{self.policy}:x{self.scale:g}:d{self.duration:g}"
            if self.nodes:
                label += f":n{self.nodes}"
            if self.shards > 1:
                label += f":s{self.shards}"
            if self.fork:
                label += ":fork"
            return label
        return f"micro:vmm:{self.size_mib}mib"


def _run_characterize(spec: BenchSpec) -> Dict[str, object]:
    from repro.analysis.characterize import run_single

    run = run_single(
        spec.name,
        policy=spec.policy,
        iterations=spec.iterations,
        memory_budget=spec.budget_mib * MIB,
    )
    try:
        return {
            "final_uss": run.final_uss,
            "final_ideal": run.final_ideal,
            "avg_ratio": round(run.avg_ratio, 9),
            "max_ratio": round(run.max_ratio, 9),
            "latency_sum": round(sum(run.latency_series), 9),
        }
    finally:
        run.destroy()


def _archive_metrics(archive_dir: str, flat_path: str) -> Dict[str, object]:
    """Archive-side metrics for one traced replay leg.

    Reads the finished archive's manifest for size/ratio, times a fresh
    :func:`~repro.trace.archive.pack` of the flat twin for pack
    throughput, and times a 1% time-slice windowed read (the archive's
    headline access pattern) including full footer verification.
    """
    from repro.sim.shard import sha256_lines
    from repro.trace.archive import ArchiveReader, pack

    manifest = ArchiveReader(archive_dir).manifest
    compressed = manifest["compressed_bytes"]
    payload = manifest["payload_bytes"]
    metrics: Dict[str, object] = {
        "archive_segments": manifest["segments"],
        "archive_compressed_bytes": compressed,
        "archive_payload_bytes": payload,
        "archive_compression_ratio": (
            round(payload / compressed, 4) if compressed else None
        ),
        "archive_sha256": manifest["sha256"],
    }
    with tempfile.TemporaryDirectory(prefix="repro-pack-") as scratch:
        t0 = time.perf_counter()
        events, _ = pack(
            flat_path,
            Path(scratch) / "arc",
            bucket_seconds=manifest["bucket_seconds"],
        )
        elapsed = time.perf_counter() - t0
    metrics["archive_pack_events_per_sec"] = (
        round(events / elapsed) if elapsed > 0 else None
    )
    t_min, t_max = manifest["t_min"], manifest["t_max"]
    if t_min is not None and t_max is not None and t_max > t_min:
        span = t_max - t_min
        t0 = time.perf_counter()
        reader = ArchiveReader(archive_dir)
        events, _ = sha256_lines(
            reader.iter_window(
                t_start=t_min + 0.495 * span,
                t_end=t_min + 0.505 * span,
                verify=True,
            )
        )
        metrics["archive_window_read_ms"] = round(
            (time.perf_counter() - t0) * 1e3, 3
        )
        metrics["archive_window_events"] = events
        metrics["archive_window_segments_read"] = len(reader.segments_read)
    return metrics


def _run_replay(spec: BenchSpec) -> Dict[str, object]:
    from repro.core import Desiccant, EagerGcManager, VanillaManager
    from repro.faas.platform import PlatformConfig
    from repro.trace.generator import TraceGenerator
    from repro.trace.replay import (
        ClusterReplayConfig,
        ReplayConfig,
        cluster_replay,
        replay,
    )

    factories = {
        "vanilla": VanillaManager,
        "eager": EagerGcManager,
        "desiccant": Desiccant,
    }
    if spec.archive and not spec.trace:
        raise ValueError("archive metrics require trace=True")
    if spec.fork and not (spec.nodes and spec.trace):
        raise ValueError("fork legs require a traced cluster replay")
    if spec.nodes:
        with tempfile.TemporaryDirectory(prefix="repro-bench-arc-") as scratch:
            archive_dir = str(Path(scratch) / "archive") if spec.archive else None
            flat_path = str(Path(scratch) / "flat.jsonl") if spec.archive else None
            checkpoint_dir = str(Path(scratch) / "ckpt") if spec.fork else None
            config = ClusterReplayConfig(
                nodes=spec.nodes,
                scheduler=spec.scheduler,
                shards=spec.shards,
                epoch_seconds=spec.epoch,
                scale_factor=spec.scale,
                warmup_seconds=spec.warmup,
                warmup_scale_factor=spec.scale,
                duration_seconds=spec.duration,
                platform=PlatformConfig(capacity_bytes=spec.capacity_mib * MIB),
                trace=spec.trace,
                event_trace_path=flat_path,
                archive_dir=archive_dir,
                checkpoint_dir=checkpoint_dir,
            )
            scratch_t0 = time.perf_counter()
            result = cluster_replay(
                factories[spec.policy], config, TraceGenerator(seed=spec.seed)
            )
            scratch_wall = time.perf_counter() - scratch_t0
            fork_result = None
            fork_wall = None
            if spec.fork:
                # The forked twin resumes at the warmup/measurement
                # boundary: its wall time covers only the measured
                # suffix, and its merged trace must still equal the
                # from-scratch run's byte for byte.
                from dataclasses import replace as dc_replace

                forked = dc_replace(
                    config,
                    resume_from=str(Path(checkpoint_dir) / "measure-start.ckpt"),
                )
                fork_t0 = time.perf_counter()
                fork_result = cluster_replay(
                    factories[spec.policy], forked, TraceGenerator(seed=spec.seed)
                )
                fork_wall = time.perf_counter() - fork_t0
            stats = result.stats
            metrics = {
                "cold_boot_rate": round(stats.cold_boot_rate, 9),
                "throughput_rps": round(stats.throughput_rps, 9),
                "cpu_utilization": round(stats.cpu_utilization, 9),
                "p99_latency": round(stats.p99_latency, 9),
                "evictions": stats.evictions,
                "epochs": result.epochs,
                # Coordination-cost accounting (docs/BENCHMARKS.md):
                # barrier exchanges, exact framed pipe bytes, and the
                # coordinator wall not covered by worker kernel time.
                "round_trips": result.round_trips,
                "pipe_bytes": result.pipe_bytes,
                "pipe_bytes_per_epoch": (
                    round(result.pipe_bytes / result.epochs, 1)
                    if result.epochs
                    else 0.0
                ),
                "coordination_overhead": round(
                    result.coordination_overhead, 4
                ),
                "worker_busy_seconds": round(result.worker_busy_seconds, 4),
                "coordinator_wall_seconds": round(
                    result.coordinator_wall_seconds, 4
                ),
                "cpu_count": os.cpu_count(),
            }
            if spec.trace:
                metrics["trace_events"] = result.trace_events
                metrics["trace_sha256"] = result.trace_sha256
            if fork_result is not None:
                metrics["scratch_wall_seconds"] = round(scratch_wall, 4)
                metrics["fork_wall_seconds"] = round(fork_wall, 4)
                metrics["fork_warmup_skip_speedup"] = (
                    round(scratch_wall / fork_wall, 2) if fork_wall else None
                )
                metrics["fork_measure_start"] = round(
                    fork_result.measure_start, 6
                )
                metrics["fork_trace_events"] = fork_result.trace_events
                metrics["fork_trace_sha256"] = fork_result.trace_sha256
            if spec.archive:
                metrics.update(_archive_metrics(archive_dir, flat_path))
            return metrics
    trace_path = None
    archive_root = None
    if spec.trace:
        fd, trace_path = tempfile.mkstemp(prefix="repro-trace-", suffix=".jsonl")
        os.close(fd)
    try:
        archive_dir = None
        if spec.archive:
            archive_root = tempfile.mkdtemp(prefix="repro-bench-arc-")
            archive_dir = str(Path(archive_root) / "archive")
        config = ReplayConfig(
            scale_factor=spec.scale,
            warmup_seconds=spec.warmup,
            warmup_scale_factor=spec.scale,
            duration_seconds=spec.duration,
            platform=PlatformConfig(capacity_bytes=spec.capacity_mib * MIB),
            event_trace_path=trace_path,
            archive_dir=archive_dir,
        )
        result = replay(factories[spec.policy], config, TraceGenerator(seed=spec.seed))
        stats = result.stats
        metrics = {
            "cold_boot_rate": round(stats.cold_boot_rate, 9),
            "throughput_rps": round(stats.throughput_rps, 9),
            "cpu_utilization": round(stats.cpu_utilization, 9),
            "p99_latency": round(stats.p99_latency, 9),
            "evictions": stats.evictions,
        }
        if trace_path is not None:
            metrics["trace_events"] = result.trace_events
            metrics["trace_sha256"] = result.trace_sha256
        if spec.archive:
            metrics.update(_archive_metrics(archive_dir, trace_path))
        return metrics
    finally:
        if trace_path is not None:
            os.unlink(trace_path)
        if archive_root is not None:
            shutil.rmtree(archive_root, ignore_errors=True)


def run_vmm_microbench(size_mib: int = 200, repeats: int = 3) -> Dict[str, float]:
    """Time bulk touch + discard of ``size_mib`` MiB on the run-length VMM
    and on the retained per-page reference; report best-of-``repeats`` in
    milliseconds plus the resulting speedups.
    """
    from repro.mem.physical import PhysicalMemory
    from repro.mem.reference import ReferenceAddressSpace
    from repro.mem.vmm import VirtualAddressSpace

    size = size_mib * MIB
    pages = size // PAGE_SIZE

    def best_of(factory) -> Dict[str, float]:
        touch_s = discard_s = float("inf")
        for _ in range(repeats):
            space = factory()
            mapping = space.mmap(size)
            t0 = time.perf_counter()
            counts = space.touch(mapping.start, size)
            t1 = time.perf_counter()
            released = space.discard(mapping.start, size)
            t2 = time.perf_counter()
            assert counts.minor == pages and released == pages
            space.close()
            touch_s = min(touch_s, t1 - t0)
            discard_s = min(discard_s, t2 - t1)
        return {"touch_ms": touch_s * 1e3, "discard_ms": discard_s * 1e3}

    fast = best_of(lambda: VirtualAddressSpace("bench", PhysicalMemory()))
    ref = best_of(lambda: ReferenceAddressSpace("bench-ref", PhysicalMemory()))
    return {
        "size_mib": size_mib,
        "pages": pages,
        "touch_ms": round(fast["touch_ms"], 4),
        "discard_ms": round(fast["discard_ms"], 4),
        "ref_touch_ms": round(ref["touch_ms"], 4),
        "ref_discard_ms": round(ref["discard_ms"], 4),
        "speedup_touch": round(ref["touch_ms"] / fast["touch_ms"], 2),
        "speedup_discard": round(ref["discard_ms"] / fast["discard_ms"], 2),
    }


def execute_spec(
    spec: BenchSpec, profile_dir: Optional[str] = None
) -> Dict[str, object]:
    """Run one spec; returns its metrics plus wall/CPU timings.

    Traced replay legs additionally report ``trace_events_per_second``
    -- emitted trace events over the leg's wall time, the
    emission-throughput headline.  Every leg also samples its own Python
    allocation high-water mark (``peak_tracemalloc_bytes``): tracemalloc
    runs for *all* legs, so the uniform tracing overhead cancels out of
    every wall-time ratio the suite reports.  With ``profile_dir`` the
    run executes under ``cProfile`` and dumps ``<label>.prof`` plus a
    cumulative-time top-30 listing next to it.  Top-level (not a
    closure) so ``ProcessPoolExecutor`` can pickle it.
    """
    profiler = None
    if profile_dir is not None:
        Path(profile_dir).mkdir(parents=True, exist_ok=True)
        profiler = cProfile.Profile()
    tracemalloc.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if profiler is not None:
        profiler.enable()
    try:
        if spec.kind == "characterize":
            metrics = _run_characterize(spec)
        elif spec.kind == "replay":
            metrics = _run_replay(spec)
        elif spec.kind == "micro":
            metrics = run_vmm_microbench(spec.size_mib, spec.repeats)
        else:
            raise ValueError(f"unknown bench kind {spec.kind!r}")
    finally:
        if profiler is not None:
            profiler.disable()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    if spec.kind == "replay" and wall > 0 and metrics.get("trace_events"):
        metrics["trace_events_per_second"] = round(
            metrics["trace_events"] / wall
        )
    result = {
        "label": spec.label,
        "spec": asdict(spec),
        "metrics": metrics,
        "wall_seconds": round(wall, 4),
        "cpu_seconds": round(cpu, 4),
        # Coordinator-process peak only: cluster shard workers allocate in
        # their own processes, which this counter does not see.
        "peak_tracemalloc_bytes": peak_bytes,
    }
    if profiler is not None:
        stem = Path(profile_dir) / spec.label.replace(":", "_")
        profiler.dump_stats(f"{stem}.prof")
        with open(f"{stem}.txt", "w") as sink:
            stats = pstats.Stats(profiler, stream=sink)
            stats.sort_stats("cumulative").print_stats(30)
        result["profile"] = f"{stem}.prof"
    return result


def run_benchmarks(
    specs: Sequence[BenchSpec],
    jobs: int = 1,
    profile_dir: Optional[str] = None,
    mp_context=None,
) -> List[Dict[str, object]]:
    """Execute every spec, fanning across ``jobs`` worker processes.

    Results come back in spec order regardless of completion order, and the
    per-run *metrics* are bit-identical to a serial run -- each spec builds
    its own physical memory and seeds its own RNG streams.  Profiling
    (``profile_dir``) composes with fan-out: each worker profiles only its
    own spec's process.

    The parent's run flags (``REPRO_CHECK`` and its tuning knobs) are
    re-applied in every worker by an explicit pool initializer, so
    results do not depend on the multiprocessing start method -- under
    ``spawn`` or ``forkserver`` (injectable here via ``mp_context`` for
    tests) workers would otherwise see a stale environment instead of
    the configuration the parent is running with.
    """
    run_one = partial(execute_spec, profile_dir=profile_dir)
    if jobs <= 1 or len(specs) <= 1:
        return [run_one(spec) for spec in specs]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(specs)),
        mp_context=mp_context,
        initializer=procenv.initializer,
        initargs=(procenv.snapshot(),),
    ) as pool:
        return list(pool.map(run_one, specs))


def build_grid(
    functions: Sequence[str],
    policies: Sequence[str],
    scales: Sequence[float],
    iterations: int = 30,
    budget_mib: int = 256,
    duration: float = 20.0,
    warmup: float = 10.0,
    seed: int = 42,
) -> List[BenchSpec]:
    """The default (figure-cell, policy, scale) fan-out grid."""
    specs = [
        BenchSpec(
            kind="characterize",
            name=fn,
            policy=policy,
            iterations=iterations,
            budget_mib=budget_mib,
        )
        for fn in functions
        for policy in policies
    ]
    specs.extend(
        BenchSpec(
            kind="replay",
            policy=policy,
            scale=scale,
            duration=duration,
            warmup=warmup,
            seed=seed,
        )
        for scale in scales
        for policy in policies
    )
    return specs


def build_replay_macro(
    sizes: Sequence[str] = ("small", "medium", "large"),
    policies: Sequence[str] = ("vanilla", "desiccant"),
    seed: int = 42,
    nodes: int = 0,
    shard_counts: Sequence[int] = (),
    scheduler: str = "warm-affinity",
    include_forked: bool = False,
) -> List[BenchSpec]:
    """The macro replay suite: one traced, archiving leg per (size, policy).

    :func:`verify_trace_identity` pins each leg's composed archive digest
    to its flat trace, and ``--check`` pins the trace digest to the
    committed baseline's.

    With ``nodes`` set, every (size, policy) additionally gets cluster
    legs: one serial-twin run (``shards=1``) plus one per entry in
    ``shard_counts``.  All of them trace, and the digest gate pins each
    sharded leg's merged trace to the serial twin's byte for byte --
    the cross-process equivalence witness.  ``include_forked`` adds a
    checkpoint-fork sweep leg per cluster cell (label suffix ``:fork``):
    the from-scratch run captures a ``measure-start`` checkpoint, a
    forked twin resumes from it skipping the warmup prefix, and
    :func:`verify_trace_identity` pins the two merged-trace digests to
    each other.
    """
    specs = []
    for size in sizes:
        try:
            shape = REPLAY_SIZES[size]
        except KeyError:
            raise ValueError(
                f"unknown replay size {size!r} (choose from "
                f"{', '.join(REPLAY_SIZES)})"
            ) from None
        for policy in policies:
            specs.append(
                BenchSpec(
                    kind="replay",
                    policy=policy,
                    scale=shape["scale"],
                    duration=shape["duration"],
                    warmup=shape["warmup"],
                    capacity_mib=int(shape["capacity_mib"]),
                    seed=seed,
                    trace=True,
                    archive=True,
                )
            )
            if nodes:
                for shards in (1, *shard_counts):
                    specs.append(
                        BenchSpec(
                            kind="replay",
                            policy=policy,
                            scale=shape["scale"],
                            duration=shape["duration"],
                            warmup=shape["warmup"],
                            capacity_mib=int(shape["capacity_mib"]),
                            seed=seed,
                            trace=True,
                            archive=True,
                            nodes=nodes,
                            shards=shards,
                            scheduler=scheduler,
                            # Fine grid: window batching grants many
                            # epochs per pipe message.
                            epoch=2.0,
                        )
                    )
                    if include_forked:
                        specs.append(
                            BenchSpec(
                                kind="replay",
                                policy=policy,
                                scale=shape["scale"],
                                duration=shape["duration"],
                                warmup=shape["warmup"],
                                capacity_mib=int(shape["capacity_mib"]),
                                seed=seed,
                                trace=True,
                                nodes=nodes,
                                shards=shards,
                                scheduler=scheduler,
                                epoch=2.0,
                                fork=True,
                            )
                        )
    return specs


#: ``:sK`` shard suffix in a replay label (the serial twin has none).
_SHARD_SUFFIX = re.compile(r":s\d+")
#: ``:nK`` cluster-size suffix (single-platform labels have none).
_NODES_SUFFIX = re.compile(r":n\d+")


def _serial_twin_label(label: str) -> str:
    """The serial-twin label a sharded leg's digest gates against."""
    return _SHARD_SUFFIX.sub("", label)


def verify_trace_identity(results: Sequence[Dict[str, object]]) -> List[str]:
    """Check that every replay equivalence pair produced identical traces.

    Three pairings gate:

    * every sharded cluster leg (``:sK``) vs its serial twin (the same
      label without the shard suffix) -- the multi-process run must merge
      to the exact bytes of the single-process run;
    * within every ``:fork`` leg, the forked twin's merged trace vs the
      from-scratch run's;
    * within every archiving leg, the archive's composed per-segment
      digest vs the flat whole-run digest -- the composition rule
      (docs/TRACE_ARCHIVE.md) holding at benchmark scale.

    Returns failure messages; an unpaired leg or a replay without
    tracing is simply not checked.
    """
    digests: Dict[str, Dict[str, object]] = {}
    for result in results:
        if result["spec"]["kind"] != "replay":
            continue
        if "trace_sha256" not in result["metrics"]:
            continue
        digests[result["label"]] = result["metrics"]
    failures = []
    for label, metrics in sorted(digests.items()):
        archive_sha = metrics.get("archive_sha256")
        if archive_sha is not None and archive_sha != metrics["trace_sha256"]:
            failures.append(
                f"{label}: composed archive digest diverged from the flat "
                f"trace ({archive_sha[:12]} != "
                f"{metrics['trace_sha256'][:12]})"
            )
        fork_sha = metrics.get("fork_trace_sha256")
        if fork_sha is not None and fork_sha != metrics["trace_sha256"]:
            failures.append(
                f"{label}: forked leg's merged trace diverged from its "
                f"from-scratch twin ({metrics.get('fork_trace_events')} vs "
                f"{metrics['trace_events']} events, {str(fork_sha)[:12]} != "
                f"{metrics['trace_sha256'][:12]})"
            )
        if _SHARD_SUFFIX.search(label):
            serial = digests.get(_serial_twin_label(label))
            if serial is None or serial is metrics:
                continue
            if metrics["trace_sha256"] != serial["trace_sha256"]:
                failures.append(
                    f"{label}: sharded merged trace diverged from the serial "
                    f"twin ({metrics['trace_events']} vs "
                    f"{serial['trace_events']} events, "
                    f"{metrics['trace_sha256'][:12]} != "
                    f"{serial['trace_sha256'][:12]})"
                )
    return failures


def replay_speedups(results: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Wall-clock ratios for every sharded replay label.

    Two pairings, one entry per sharded label:

    * sharded cluster leg (``:sK``) vs its serial twin (the multi-process
      speedup -- bounded by the machine's core count);
    * sharded cluster leg vs the *single-platform* leg of the same
      (policy, size), reported as ``vs_single_speedup`` -- the end-to-end
      gain of splitting one big replay into sharded cluster nodes.
    """
    walls = {
        r["label"]: r["wall_seconds"]
        for r in results
        if r["spec"]["kind"] == "replay"
    }
    speedups = {}
    for label in sorted(walls):
        if not _SHARD_SUFFIX.search(label):
            continue
        entry = {}
        serial_label = _serial_twin_label(label)
        sharded = walls[label]
        if serial_label in walls:
            serial = walls[serial_label]
            entry.update(
                serial_wall_seconds=serial,
                sharded_wall_seconds=sharded,
                speedup=round(serial / sharded, 2) if sharded else None,
            )
        single_label = _NODES_SUFFIX.sub("", serial_label)
        if single_label in walls:
            entry["vs_single_wall_seconds"] = walls[single_label]
            entry["vs_single_speedup"] = (
                round(walls[single_label] / sharded, 2) if sharded else None
            )
        if entry:
            speedups[label] = entry
    return speedups


def compare_replay(
    current: Sequence[Dict[str, object]],
    baseline: Sequence[Dict[str, object]],
    factor: float = 2.0,
) -> List[str]:
    """Regression check for the macro suite: returns failure messages.

    Every replay run present in both result lists gates on wall time
    against ``factor`` times the committed baseline; unmatched labels are
    informational.  Labels encode (policy, scale, duration, cluster
    shape), so a matched label is the same workload.  When the matched
    run also used the committed run's seed, its simulation must be the
    committed one: the trace digest must equal the committed digest,
    round trips and epochs must equal the committed counts (more is a
    regression, fewer means the committed file is stale), and pipe bytes
    may not exceed ``factor`` times the committed bytes.
    """
    committed = {
        r["label"]: r
        for r in baseline
        if r.get("spec", {}).get("kind") == "replay"
    }
    failures = []
    matched = 0
    for result in current:
        label = result["label"]
        if result["spec"]["kind"] != "replay":
            continue
        base_run = committed.get(label)
        if base_run is None:
            continue
        matched += 1
        wall, base = result["wall_seconds"], base_run["wall_seconds"]
        if wall > base * factor:
            failures.append(
                f"{label}: {wall:.2f}s exceeds {factor:g}x baseline "
                f"({base:.2f}s)"
            )
        if result["spec"].get("seed") != base_run["spec"].get("seed"):
            continue
        metrics, base_metrics = result["metrics"], base_run["metrics"]
        sha, base_sha = metrics.get("trace_sha256"), base_metrics.get("trace_sha256")
        if sha is not None and base_sha is not None and sha != base_sha:
            failures.append(
                f"{label}: trace digest {sha[:12]} != committed {base_sha[:12]}"
            )
        for key, noun in (("round_trips", "round trips"), ("epochs", "epochs")):
            count, base_count = metrics.get(key), base_metrics.get(key)
            if count is not None and base_count is not None and count != base_count:
                failures.append(
                    f"{label}: {count} {noun} != the committed {base_count}"
                )
        pipe, base_pipe = metrics.get("pipe_bytes"), base_metrics.get("pipe_bytes")
        if pipe is not None and base_pipe is not None and pipe > base_pipe * factor:
            failures.append(
                f"{label}: {pipe} pipe bytes exceeds {factor:g}x the committed "
                f"{base_pipe}"
            )
    if not matched:
        failures.append(
            "no replay labels matched the baseline "
            "(wrong --sizes, or the baseline lacks replay runs)"
        )
    return failures


def summarize(results: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate a result list into the committed-baseline document shape."""
    document = {
        "schema": "repro-bench/1",
        "total_wall_seconds": round(
            sum(r["wall_seconds"] for r in results), 4
        ),
        "total_cpu_seconds": round(sum(r["cpu_seconds"] for r in results), 4),
        #: Cores on the recording machine -- context for every wall
        #: timing and for the sharded legs' speedups in particular.
        "cpu_count": os.cpu_count(),
        "runs": list(results),
    }
    speedups = replay_speedups(results)
    if speedups:
        document["replay_speedups"] = speedups
    return document


def write_results(path: Path, document: Dict[str, object]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_baseline(path: Path) -> Optional[Dict[str, object]]:
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def compare_micro(
    current: Dict[str, float],
    baseline: Dict[str, float],
    factor: float = 2.0,
) -> List[str]:
    """Regression check for the microbenchmark: returns failure messages.

    A metric regresses when the current time exceeds ``factor`` times the
    committed baseline time.  Only the run-length timings gate; the
    reference timings are informational.
    """
    failures = []
    for key in ("touch_ms", "discard_ms"):
        cur, base = current.get(key), baseline.get(key)
        if cur is None or base is None:
            failures.append(f"{key}: missing from current or baseline")
            continue
        if cur > base * factor:
            failures.append(
                f"{key}: {cur:.2f} ms exceeds {factor:g}x baseline "
                f"({base:.2f} ms)"
            )
    return failures
