"""Multi-node FaaS cluster: a front-end router over invoker nodes.

The paper's single-server experiments extend naturally to a cluster: each
invoker node runs its own instance cache (and its own Desiccant), and a
front-end assigns requests to nodes.  Warm starts only happen on a node
that already caches the function, so the routing policy interacts directly
with the frozen-garbage economics:

* ``round-robin``    -- spreads every function across all nodes: maximum
  balance, minimum warm locality;
* ``least-assigned`` -- balances by assigned request count;
* ``warm-affinity``  -- hashes each function to a home node (consistent
  assignment), concentrating its warm instances.

Every scheduler is static: its decisions are a pure function of the
arrival sequence, so the coordinator routes each arrival before any node
simulates it.

Execution
---------
:class:`ShardedClusterSession` is the one cluster engine.  It partitions
the nodes across shards via :mod:`repro.sim.shard` -- in-process at one
shard, one worker process per shard above that.  Each shard is a
:class:`ClusterShardHost`: its nodes share one private kernel, and the
only cross-node interaction -- front-end routing -- stays in the
coordinator, which feeds routed arrivals to shards in conservative time
epochs.  Node simulations are state-independent (each node owns its
physical memory, library pool, and instances), so partitioning changes
nothing observable: per-node canonical event traces are byte-identical
for every shard count and merge back into one global order.

The session speaks one wire protocol, the batched window protocol: the
phase's epoch horizons are the fixed grid
(:func:`repro.sim.shard.epoch_horizons`), up to ``window_epochs`` of
them are granted per framed pipe message, and function definitions are
interned per shard (names travel per arrival, each definition's body
ships once).  :class:`Cluster` is the batch front door over one session;
:func:`repro.trace.replay.cluster_replay` drives a session through the
paper's warmup-plus-measurement protocol.
"""

from __future__ import annotations

import copy
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import procenv
from repro.check.invariants import check_archive_writer, check_shard_conservation
from repro.choices import SCHEDULERS
from repro.core.baselines import VanillaManager
from repro.digest import sha256
from repro.faas.platform import FaasPlatform, PlatformConfig, Request
from repro.sim import EventTraceSink, SimKernel, checkpoint
from repro.sim.shard import epoch_horizons, make_pool
from repro.trace.archive import ArchiveWriter, parse_segment_name
from repro.trace.stats import percentile
from repro.workloads.model import FunctionDefinition


@dataclass
class ClusterConfig:
    """Cluster shape and routing."""

    nodes: int = 4
    scheduler: str = "warm-affinity"
    node_config: PlatformConfig = field(default_factory=PlatformConfig)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("need at least one node")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; pick from {SCHEDULERS}"
            )


@dataclass
class ClusterStats:
    """Aggregated outcome of one cluster run."""

    completed: int
    cold_boots: int
    cold_boot_rate: float
    evictions: int
    p50_latency: float
    p99_latency: float
    per_node_requests: List[int]

    @property
    def imbalance(self) -> float:
        """max/mean assigned requests (1.0 == perfectly balanced)."""
        if not self.per_node_requests or sum(self.per_node_requests) == 0:
            return 1.0
        mean = sum(self.per_node_requests) / len(self.per_node_requests)
        return max(self.per_node_requests) / mean if mean else 1.0


class FrontEndRouter:
    """Arrival-order routing state of the cluster front-end.

    Every scheduler's decision is a pure function of the arrival sequence
    and this object's counters, which is why a sharded coordinator can
    route without any live node state.
    """

    def __init__(self, nodes: int, scheduler: str) -> None:
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; pick from {SCHEDULERS}"
            )
        self.node_count = nodes
        self.scheduler = scheduler
        #: Requests assigned per node so far (routing state and statistic).
        self.assigned: List[int] = [0] * nodes
        self._rr_next = 0

    def route(self, definition: FunctionDefinition) -> int:
        """One routing decision; advances the router's state."""
        scheduler = self.scheduler
        if scheduler == "round-robin":
            node = self._rr_next
            self._rr_next = (self._rr_next + 1) % self.node_count
        elif scheduler == "least-assigned":
            node = min(range(self.node_count), key=lambda i: self.assigned[i])
        else:  # warm-affinity
            node = zlib.crc32(definition.name.encode()) % self.node_count
        self.assigned[node] += 1
        return node


class Cluster:
    """A set of invoker nodes behind a routing front-end.

    Collects ``(time, definition)`` arrivals; :meth:`run` routes and
    replays them through one :class:`ShardedClusterSession`.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        manager_factory: Optional[Callable[[], object]] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self._manager_factory = manager_factory or VanillaManager
        #: Submission log: ``(time, definition)`` per arrival, in submit
        #: order.
        self._submitted: List[Tuple[float, FunctionDefinition]] = []

    def submit(self, arrivals: Sequence[Tuple[float, FunctionDefinition]]) -> None:
        """Queue a batch of ``(time, definition)`` arrivals.

        Times must not decrease across the whole submission log, batch
        boundaries included: :meth:`run` refuses a log that goes back in
        time.
        """
        self._submitted.extend((time, definition) for time, definition in arrivals)

    def run(self, shards: int = 1) -> ClusterStats:
        """Route and replay every submitted arrival, then aggregate.

        One shard runs every node in this process; ``shards=N``
        partitions the nodes across ``N`` worker processes.  The node
        partition changes nothing observable, so the statistics are the
        same at every shard count.
        """
        session = ShardedClusterSession(
            self.config, self._manager_factory, shards=shards
        )
        try:
            session.run_phase(self._submitted)
            nodes = session.finish()
        finally:
            session.close()
        outcomes = [pair for info in nodes.values() for pair in info["outcomes"]]
        latencies = [latency for latency, _ in outcomes] or [0.0]
        cold = sum(cold_boots for _, cold_boots in outcomes)
        return ClusterStats(
            completed=len(outcomes),
            cold_boots=cold,
            cold_boot_rate=cold / len(outcomes) if outcomes else 0.0,
            evictions=sum(info["evictions"] for info in nodes.values()),
            p50_latency=percentile(latencies, 50),
            p99_latency=percentile(latencies, 99),
            per_node_requests=list(session.router.assigned),
        )


# ------------------------------------------------------------------ shards


def check_parameters(
    nodes: int, scheduler: str, epoch_seconds: float, window_epochs: int
) -> None:
    """Refuse a cluster shape or epoch grid the engine cannot run.

    :class:`ShardedClusterSession` runs these checks when it is built,
    and :class:`~repro.trace.replay.ClusterReplayConfig` when it is.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; pick from {SCHEDULERS}")
    if epoch_seconds <= 0:
        raise ValueError("epoch_seconds must be positive")
    if window_epochs < 1:
        raise ValueError("window_epochs must be >= 1")


def partition_nodes(nodes: int, shards: int) -> List[Tuple[int, ...]]:
    """Contiguous, size-balanced node partitions (shard k gets
    ``nodes[k*n//S:(k+1)*n//S]``); every node lands in exactly one shard."""
    shards = max(1, min(shards, nodes))
    return [
        tuple(range(k * nodes // shards, (k + 1) * nodes // shards))
        for k in range(shards)
    ]


@dataclass
class ClusterShardSpec:
    """Everything a worker needs to build its shard (must pickle)."""

    shard: int
    #: Kernel seed (the cluster-wide base seed).
    seed: int
    node_ids: Tuple[int, ...]
    #: Per-node platform configs, seeds already offset by node id.
    node_configs: Dict[int, PlatformConfig]
    manager_factory: Callable[[], object]
    #: Roll node-canonical records into segmented-archive form here once
    #: the ``start-trace`` mark arrives (shared across shards: each worker
    #: writes only its own nodes' segments, the coordinator finalizes;
    #: None = never trace).
    archive_dir: Optional[str] = None
    archive_bucket_seconds: float = 60.0
    #: Stream per-node telemetry CSVs here (one sample per simulated
    #: second, 512 kept in memory), flushed at every epoch barrier.
    telemetry_dir: Optional[str] = None


class ClusterShardHost:
    """Worker-side shard: a partition of cluster nodes on one kernel.

    Implements the :mod:`repro.sim.shard` host protocol.  The shard's
    nodes share a private kernel seeded with the cluster-wide base seed,
    and each node's platform config carries its node-offset seed -- so
    every node computes the same event timeline at every shard count,
    just interleaved with a different set of peers.
    """

    def __init__(self, spec: ClusterShardSpec) -> None:
        # Telemetry loads only in a run that streams it.
        from repro.faas.telemetry import TelemetryRecorder

        self.spec = spec
        self.kernel = SimKernel(seed=spec.seed)
        self.platforms: Dict[int, FaasPlatform] = {}
        for node_id in spec.node_ids:
            self.platforms[node_id] = FaasPlatform(
                config=spec.node_configs[node_id],
                manager=spec.manager_factory(),
                kernel=self.kernel,
                node_id=node_id,
            )
        self._sinks: Dict[int, EventTraceSink] = {}
        self._recorders: Dict[int, object] = {}
        self._archive = None
        #: Interned definitions, registered once per shard via the
        #: window preamble; arrivals then carry names only.
        self._definitions: Dict[str, FunctionDefinition] = {}
        #: Host wall-clock seconds this worker spent advancing its
        #: kernel -- the worker-side half of ``coordination_overhead``.
        self._busy_wall = 0.0
        if spec.telemetry_dir is not None:
            for node_id, platform in self.platforms.items():
                self._recorders[node_id] = TelemetryRecorder(
                    platform,
                    interval=1.0,
                    max_samples=512,
                    stream_csv=Path(spec.telemetry_dir) / f"node{node_id:03d}.csv",
                )

    # ----------------------------------------------------------- protocol

    def window_begin(self, preamble: Dict[str, FunctionDefinition]) -> None:
        """Register this window's newly interned function definitions.

        The coordinator ships each definition's body at most once per
        shard (the window grant's preamble); every later arrival for it
        carries only the name.
        """
        self._definitions.update(preamble)

    def begin_epoch(self, payload: Sequence[Tuple[int, float, str, int]]) -> None:
        """Accept one epoch's routed arrivals: ``(node, time, name, id)``,
        each ``name`` an interned definition (see :meth:`window_begin`)."""
        for node_id, time, name, request_id in payload:
            definition = self._definitions[name]
            self.platforms[node_id].submit(
                [Request(arrival=time, definition=definition, id=request_id)]
            )

    def advance(self, until: Optional[float]) -> None:
        started = procenv.wall_clock()
        try:
            self.kernel.run(until)
        finally:
            self._busy_wall += procenv.wall_clock() - started

    def epoch_end(self, horizon: Optional[float]) -> None:
        """Per-epoch bounded-memory flush point and oracle cadence.

        Runs after *every* epoch of a window (not just at the window
        barrier), so batching changes neither the trace/telemetry flush
        cadence nor -- with ``REPRO_CHECK=1`` -- how often each node's
        invariant oracle sweeps its full platform.
        """
        for sink in self._sinks.values():
            sink.flush()
        for recorder in self._recorders.values():
            recorder.flush()
        if self._archive is not None:
            self._archive.flush()
            if any(p.oracle is not None for p in self.platforms.values()):
                check_archive_writer(self._archive)
        for platform in self.platforms.values():
            if platform.oracle is not None:
                platform.oracle.check_now()

    def epoch_report(self, horizon: Optional[float]) -> Dict[str, object]:
        """Snapshot the shard at the window barrier: clock, event count,
        and the swap-conservation sums the coordinator re-checks."""
        conservation = {
            "frames_used_bytes": 0,
            "swap_pages": 0,
            "swap_outs": 0,
            "swap_ins": 0,
            "swap_discards": 0,
        }
        for platform in self.platforms.values():
            physical = platform.physical
            conservation["frames_used_bytes"] += physical.used_bytes
            conservation["swap_pages"] += physical.swap.pages
            conservation["swap_outs"] += physical.swap.total_swap_outs
            conservation["swap_ins"] += physical.swap.total_swap_ins
            conservation["swap_discards"] += physical.swap.total_discards
        return {
            "shard": self.spec.shard,
            "clock": self.kernel.now,
            "events": self.kernel.events_processed,
            "conservation": conservation,
        }

    # --------------------------------------------------------- checkpoints

    def reopen_outputs(self) -> None:
        """Re-attach streamed outputs after a checkpoint restore.

        Telemetry streams are truncated back to their barrier offsets and
        reopened for append.  Archive segments the previous life closed
        *after* the barrier are pruned: their ``(bucket, node)`` cells
        are absent from the restored writer's bookkeeping, so leaving the
        files behind would poison the shared root with orphans no footer
        accounts for.
        """
        for recorder in self._recorders.values():
            recorder.reopen_outputs()
        if self._archive is not None:
            known = {footer["name"] for footer in self._archive._closed}
            known.update(
                segment.path.name for segment in self._archive._open.values()
            )
            nodes = set(self.spec.node_ids)
            for path in sorted(self._archive.root.glob("seg-*")):
                parsed = parse_segment_name(path.name)
                if (
                    parsed is not None
                    and parsed[1] in nodes
                    and path.name not in known
                ):
                    path.unlink()

    def apply_fork(self, settings: Dict[str, object]) -> None:
        """Apply a fork's changed policy/parameters at the restore barrier.

        ``manager_factory`` swaps every node's memory manager
        (:meth:`FaasPlatform.set_manager`); cache and instance state
        carry over, so the fork explores "what if the policy had changed
        *here*".  ``reseed`` re-derives every existing kernel RNG stream
        via :meth:`~repro.sim.rng.RngStream.split` -- mutated in place,
        so every component holding a stream reference lands on the new
        sequence -- putting the forked leg on independent randomness
        from the barrier on.  Without ``reseed`` an unchanged fork
        replays the captured run bit for bit.
        """
        unknown = set(settings) - {"manager_factory", "reseed"}
        if unknown:
            raise ValueError(f"unknown fork settings {sorted(unknown)!r}")
        factory = settings.get("manager_factory")
        if factory is not None:
            self.spec.manager_factory = factory
            for platform in self.platforms.values():
                platform.set_manager(factory())
        label = settings.get("reseed")
        if label:
            for stream in self.kernel._rngs.values():
                stream.setstate(stream.split(str(label)).getstate())

    def mark(self, name: str) -> None:
        if name == "reset-metrics":
            for platform in self.platforms.values():
                platform.reset_metrics()
        elif name == "start-trace":
            if self.spec.archive_dir is None:
                return
            # One writer per worker, shared by its node sinks: every
            # (bucket, node) segment still has exactly one producer,
            # so the shared root fills with byte-identical segments
            # no matter how nodes were partitioned.
            self._archive = ArchiveWriter(
                self.spec.archive_dir,
                bucket_seconds=self.spec.archive_bucket_seconds,
            )
            for node_id, platform in self.platforms.items():
                # Node-canonical, streamed: seq is the sink's own dense
                # counter and lines go straight to the archive, so worker
                # memory stays flat and the records do not depend on
                # shard count.
                self._sinks[node_id] = EventTraceSink(
                    platform.bus,
                    node=node_id,
                    normalize_seq=True,
                    archive=self._archive,
                )
        elif name == "stop-trace":
            for sink in self._sinks.values():
                sink.detach()
        else:
            raise ValueError(f"unknown mark {name!r}")

    def finalize(self) -> Dict[str, object]:
        """Close streams, final oracle sweep, and ship what the
        coordinator reads: each node's ``(latency, cold_boots)`` per
        request, evictions and CPU busy time, the kernel's event count,
        this worker's busy wall and its archive segments' footers."""
        nodes: Dict[int, dict] = {}
        for node_id, platform in self.platforms.items():
            sink = self._sinks.get(node_id)
            if sink is not None:
                sink.detach()
            recorder = self._recorders.get(node_id)
            if recorder is not None:
                recorder.detach()
            if platform.oracle is not None:
                platform.oracle.finish()
            nodes[node_id] = {
                "outcomes": [
                    (outcome.latency, outcome.cold_boots)
                    for outcome in platform.outcomes
                ],
                "evictions": platform.evictions,
                "cpu_busy": dict(platform.cpu.busy),
            }
        archive_segments: List[Dict[str, object]] = []
        if self._archive is not None:
            # This worker wrote only its own nodes' segments.  Ship their
            # footers (the out-of-pipe trace manifest: name, payload
            # sha256, event count per segment) so the coordinator can
            # finalize the shared root without re-reading every segment
            # it already trusts.
            archive_segments = list(self._archive.close()["segments"])
            self._archive = None
        return {
            "events": self.kernel.events_processed,
            "busy_wall_seconds": self._busy_wall,
            "archive_segments": archive_segments,
            "nodes": nodes,
        }


def _session_fingerprint(
    config: ClusterConfig,
    manager_factory: Callable[[], object],
    shards: int,
    epoch_seconds: float,
    window_epochs: int,
) -> str:
    """Digest of every parameter that shapes a session's timeline.

    Two sessions with equal fingerprints compute identical epoch
    structures and routing decisions for the same arrival log, which is
    the precondition for resuming one from the other's checkpoint.
    Policy/manager objects enter by *name* (their repr embeds object
    addresses, which differ every process).
    """
    node_config = dict(vars(config.node_config))
    policy = node_config.get("eviction_policy")
    if policy is not None:
        node_config["eviction_policy"] = getattr(
            policy, "name", type(policy).__name__
        )
    description = {
        "nodes": config.nodes,
        "scheduler": config.scheduler,
        "node_config": node_config,
        "manager": getattr(
            manager_factory, "__qualname__", str(manager_factory)
        ),
        "shards": shards,
        "epoch_seconds": epoch_seconds,
        "window_epochs": window_epochs,
    }
    return sha256(
        json.dumps(description, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


class ShardedClusterSession:
    """Coordinator of one sharded cluster run.

    Owns the shard pool, the front-end router, and the conservative epoch
    loop.  All scheduling decisions are made here -- deterministically,
    from the arrival sequence alone -- so the workers never interact with
    each other and the epoch horizon is a safe lower bound on cross-shard
    event times.

    With ``shards=1`` (or ``processes=False``) the identical protocol
    drives in-process hosts: that *serial twin* is the reference leg of
    the digest gate, reducing the serial/sharded comparison to exactly
    one variable -- how nodes were partitioned across kernels.

    Every node gets a *deep copy* of the node config with its seed offset
    by node id, so stateful knobs (a keep-alive policy's histograms, the
    provisioned map) never leak between nodes.  The session grants up to
    ``window_epochs`` epochs of the fixed grid per pipe message and
    interns definitions per shard.
    """

    def __init__(
        self,
        config: ClusterConfig,
        manager_factory: Optional[Callable[[], object]] = None,
        shards: int = 1,
        epoch_seconds: float = 5.0,
        processes: Optional[bool] = None,
        window_epochs: int = 32,
        archive_dir: Optional[str] = None,
        archive_bucket_seconds: float = 60.0,
        telemetry_dir: Optional[str] = None,
    ) -> None:
        check_parameters(config.nodes, config.scheduler, epoch_seconds, window_epochs)
        factory = manager_factory or VanillaManager
        self.config = config
        self.epoch_seconds = float(epoch_seconds)
        #: Epochs granted per pipe message.
        self.window_epochs = window_epochs
        partitions = partition_nodes(config.nodes, shards)
        self.shards = len(partitions)
        self.router = FrontEndRouter(config.nodes, config.scheduler)
        self._shard_of: Dict[int, int] = {}
        specs = []
        for shard, node_ids in enumerate(partitions):
            node_configs = {}
            for node_id in node_ids:
                node_config = copy.deepcopy(config.node_config)
                node_config.seed = config.node_config.seed + node_id
                node_configs[node_id] = node_config
                self._shard_of[node_id] = shard
            specs.append(
                ClusterShardSpec(
                    shard=shard,
                    seed=config.node_config.seed,
                    node_ids=node_ids,
                    node_configs=node_configs,
                    manager_factory=factory,
                    archive_dir=archive_dir,
                    archive_bucket_seconds=archive_bucket_seconds,
                    telemetry_dir=telemetry_dir,
                )
            )
        if processes is None:
            processes = self.shards > 1
        self.pool = make_pool(ClusterShardHost, specs, processes=processes)
        #: Stable digest of everything that shapes this session's
        #: timeline; a checkpoint captured by a session with a different
        #: fingerprint is refused at restore (``checkpoint-config``).
        self._fingerprint = _session_fingerprint(
            config, factory, self.shards, self.epoch_seconds, self.window_epochs
        )
        self._request_ids = 0
        #: Function names already interned on each shard: a definition's
        #: body ships (via window preamble) only on its shard's first
        #: arrival; every arrival after that carries the name alone.
        self._shipped: List[set] = [set() for _ in range(self.shards)]
        #: Max shard clock after the last barrier (== the global last
        #: event time, identical for every shard count).
        self.clock = 0.0
        self.epochs = 0
        self.events = 0
        #: Filled by :meth:`finish` (see there).
        self.worker_busy_seconds = 0.0
        self.archive_footers: List[Dict[str, object]] = []

    # --------------------------------------------------------- accounting

    @property
    def round_trips(self) -> int:
        """Coordinator barrier exchanges so far (windows + marks + finish)."""
        return self.pool.round_trips

    @property
    def pipe_bytes(self) -> int:
        """Exact framed bytes moved through the worker pipes (both ways)."""
        return self.pool.pipe_bytes

    # ------------------------------------------------------------- driving

    def run_phase(
        self,
        arrivals: Sequence[Tuple[float, FunctionDefinition]],
        start: float = 0.0,
        end: Optional[float] = None,
        start_index: int = 0,
        start_pos: int = 0,
        checkpoint_every: Optional[int] = None,
        on_barrier: Optional[Callable[["ShardedClusterSession", int, int], None]] = None,
    ) -> None:
        """Feed one arrival batch through conservative epochs, then drain.

        ``arrivals`` are ``(time, definition)`` items in submit order,
        routed here; their times must not decrease (what
        :class:`~repro.trace.generator.TraceGenerator` produces), and a
        log that goes back in time raises ``ValueError``.
        The phase's horizons are the fixed grid
        (:func:`repro.sim.shard.epoch_horizons`) over ``(start, end]``
        and every arrival time -- a pure function of the submission log,
        so any shard count derives the identical epoch structure.
        Windows of up to ``window_epochs`` of them are granted per pipe
        message, each epoch's arrivals routed coordinator-side into
        per-shard payloads.  A final ``None`` horizon drains every shard
        to quiescence so in-flight requests complete before the phase
        returns -- it rides in the last window, costing no extra barrier.

        Checkpointing: ``on_barrier(session, index, pos)`` fires after
        every absorbed window, where ``(index, pos)`` are the arrival
        and horizon cursors a resume must restart from.
        ``checkpoint_every=N`` additionally caps windows so barriers
        land exactly at multiples of ``N`` epochs (and ``on_barrier``
        fires only there) -- the epoch structure itself never changes,
        only where the window boundaries fall, so a checkpointed run and
        an uninterrupted one execute the identical timeline.
        ``start_index``/``start_pos`` resume the phase mid-way after
        :meth:`restore`.
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        arrivals = list(arrivals)
        for position in range(1, len(arrivals)):
            if arrivals[position][0] < arrivals[position - 1][0]:
                raise ValueError(
                    f"arrival {position} (t={arrivals[position][0]!r}) is "
                    f"earlier than arrival {position - 1} "
                    f"(t={arrivals[position - 1][0]!r}): arrival times must "
                    "not decrease"
                )
        if end is None:
            end = arrivals[-1][0] if arrivals else start
        horizons: List[Optional[float]] = [
            *epoch_horizons(
                start, end, self.epoch_seconds, (time for time, _ in arrivals)
            ),
            None,
        ]
        index = start_index
        pos = start_pos
        while pos < len(horizons):
            limit = self.window_epochs
            if checkpoint_every is not None:
                boundary = (pos // checkpoint_every + 1) * checkpoint_every
                limit = min(limit, boundary - pos)
            window_horizons = horizons[pos : pos + limit]
            pos += len(window_horizons)
            payloads: List[List[List[Tuple]]] = [
                [[] for _ in window_horizons] for _ in range(self.shards)
            ]
            preambles: List[Dict[str, FunctionDefinition]] = [
                {} for _ in range(self.shards)
            ]
            for j, horizon in enumerate(window_horizons):
                if horizon is None:
                    continue  # the drain epoch carries no arrivals
                while index < len(arrivals) and arrivals[index][0] < horizon:
                    time, definition = arrivals[index]
                    index += 1
                    node = self.router.route(definition)
                    self._request_ids += 1
                    shard = self._shard_of[node]
                    name = definition.name
                    if name not in self._shipped[shard]:
                        self._shipped[shard].add(name)
                        preambles[shard][name] = definition
                    payloads[shard][j].append((node, time, name, self._request_ids))
            self._absorb(
                self.pool.window(
                    window_horizons,
                    payloads,
                    [preamble or None for preamble in preambles],
                ),
                window_horizons[-1],
                epochs=len(window_horizons),
            )
            if on_barrier is not None and (
                checkpoint_every is None
                or pos % checkpoint_every == 0
                or pos == len(horizons)
            ):
                on_barrier(self, index, pos)

    def _absorb(
        self, reports: List[Dict], horizon: Optional[float], epochs: int = 1
    ) -> None:
        check_shard_conservation(reports, horizon)
        self.epochs += epochs
        self.clock = max(report["clock"] for report in reports)
        self.events = sum(report["events"] for report in reports)

    def mark(self, name: str) -> None:
        self.pool.mark(name)

    # --------------------------------------------------------- checkpoints

    def capture(
        self,
        path: str | Path,
        index: int,
        pos: int,
        meta: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Checkpoint the whole session at the current window barrier.

        ``(index, pos)`` are the :meth:`run_phase` cursors at the
        barrier (handed to ``on_barrier``); they ride in the payload so
        a resume restarts the phase loop exactly where it stood.  The
        payload holds the coordinator's full routing state plus one
        opaque host blob per shard (:meth:`ShardPool.snapshot`); the
        header meta carries the session fingerprint, the cursors, and
        whatever the caller adds (phase name, arrival-log digest).
        """
        state = {
            "coordinator": {
                "router": self.router,
                "request_ids": self._request_ids,
                "shipped": [sorted(names) for names in self._shipped],
                "clock": self.clock,
                "epochs": self.epochs,
                "events": self.events,
            },
            "shards": self.pool.snapshot(),
            "cursor": {"index": index, "pos": pos},
        }
        full_meta: Dict[str, object] = {
            "session": self._fingerprint,
            "index": index,
            "pos": pos,
            "clock": self.clock,
            "epochs": self.epochs,
        }
        full_meta.update(meta or {})
        return checkpoint.dump(path, state, meta=full_meta)

    def restore(
        self, path: str | Path, fork: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """Rewind this (freshly built) session to a captured barrier.

        The session must have been constructed with the same parameters
        as the capturing one (enforced via the fingerprint --
        ``checkpoint-config``).  Returns ``{"index", "pos", "meta"}``:
        pass the cursors to :meth:`run_phase` as
        ``start_index``/``start_pos``.

        ``fork`` turns the restore into a what-if fork: ``scheduler``
        (coordinator-side; any of :data:`SCHEDULERS`) plus
        ``manager_factory``/``reseed``
        (worker-side, see :meth:`ClusterShardHost.apply_fork`).  An
        empty/None fork replays the captured run bit for bit.
        """
        header, state = checkpoint.load(path)
        meta = header["meta"]
        if meta.get("session") != self._fingerprint:
            raise checkpoint.CheckpointError(
                "checkpoint-config",
                f"checkpoint {path}",
                "captured by a session with different parameters "
                "(config/shards/epoch/window fingerprint mismatch)",
            )
        fork = dict(fork or {})
        scheduler = fork.pop("scheduler", None)
        if scheduler is not None:
            if scheduler not in SCHEDULERS:
                raise ValueError(
                    f"unknown scheduler {scheduler!r}; pick from {SCHEDULERS}"
                )
        coordinator = state["coordinator"]
        self.router = coordinator["router"]
        self._request_ids = coordinator["request_ids"]
        self._shipped = [set(names) for names in coordinator["shipped"]]
        self.clock = coordinator["clock"]
        self.epochs = coordinator["epochs"]
        self.events = coordinator["events"]
        self.pool.restore(state["shards"], fork=fork or None)
        if scheduler is not None:
            self.router.scheduler = scheduler
        cursor = state["cursor"]
        return {"index": cursor["index"], "pos": cursor["pos"], "meta": meta}

    def finish(self) -> Dict[int, dict]:
        """Collect per-node results from every shard, keyed by node id:
        ``outcomes`` (one ``(latency, cold_boots)`` per request),
        ``evictions`` and ``cpu_busy``.

        Also gathers the coordination-cost leftovers: the slowest
        worker's busy wall (``worker_busy_seconds``, the subtrahend of
        ``coordination_overhead``) and the shipped archive-segment
        footers (``archive_footers``), which
        :func:`repro.trace.archive.finalize_archive` consumes as the
        out-of-pipe trace manifest.
        """
        results = self.pool.finish()
        self.events = sum(result["events"] for result in results)
        self.worker_busy_seconds = max(
            result["busy_wall_seconds"] for result in results
        )
        self.archive_footers = sorted(
            (
                footer
                for result in results
                for footer in result["archive_segments"]
            ),
            key=lambda footer: (footer["bucket"], footer["node"]),
        )
        nodes: Dict[int, dict] = {}
        for result in results:
            nodes.update(result["nodes"])
        return nodes

    def close(self) -> None:
        self.pool.close()
