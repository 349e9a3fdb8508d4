"""Multi-node FaaS cluster: a front-end router over invoker nodes.

The paper's single-server experiments extend naturally to a cluster: each
invoker node runs its own instance cache (and its own Desiccant), and a
front-end assigns requests to nodes.  Warm starts only happen on a node
that already caches the function, so the routing policy interacts directly
with the frozen-garbage economics:

* ``round-robin``       -- spreads every function across all nodes: maximum
  balance, minimum warm locality;
* ``least-assigned``    -- balances by assigned request count;
* ``warm-affinity``     -- hashes each function to a home node (consistent
  assignment), concentrating its warm instances;
* ``least-loaded-live`` -- routes on *live* state at arrival time: prefer
  a node already caching the function warm, break ties (and the cold
  case) by current cache pressure.  Only possible because the cluster is
  a true time-interleaved simulation.

Serially, all nodes share one :class:`~repro.sim.kernel.SimKernel`, so
:meth:`Cluster.run` drives a single globally time-ordered event timeline
across the whole cluster and collects outcomes in completion order from
the bus.  The static schedulers route at submit time (their decisions
depend only on the arrival sequence); ``least-loaded-live`` defers each
routing decision into the simulation so it observes current node state.

Sharded execution
-----------------
``Cluster.run(shards=N)`` (and :func:`repro.trace.replay.cluster_replay`)
instead partitions the nodes across ``N`` worker processes via
:mod:`repro.sim.shard`.  Each shard is a :class:`ClusterShardHost`: its
nodes share one private kernel, and the only cross-node interaction --
front-end routing -- stays in the coordinator
(:class:`ShardedClusterSession`), which feeds routed arrivals to shards
in conservative time epochs.  Node simulations are state-independent
(each node owns its physical memory, library pool, and instances), so
partitioning changes nothing observable: per-node canonical event traces
are byte-identical to the serial run's and merge back into the same
global order.  ``least-loaded-live`` is the exception -- sharded, it
routes from epoch-boundary load digests rather than live arrival-time
state, which is deterministic and shard-count-invariant but *not* the
serial policy; the digest gate therefore runs on static schedulers.

The session speaks one wire protocol, the batched window protocol:
epoch horizons are computed adaptively from the submission log's
arrival density (:func:`repro.sim.shard.adaptive_horizons`), multiple
epochs are granted per framed pipe message, function definitions are
interned per shard (names travel per arrival, each definition's body
ships once), and load digests are shipped only when a deferred
scheduler actually consumes them -- reduced worker-side to fixed-size
summaries (``used_bytes`` plus sorted crc32s of the warm function
names).
"""

from __future__ import annotations

import copy
import hashlib
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import procenv
from repro.faas.instance import InstanceState
from repro.faas.platform import FaasPlatform, PlatformConfig, Request, RequestOutcome
from repro.sim import Event, EventTraceSink, REQUEST_DONE, SimKernel
from repro.sim.shard import adaptive_horizons, make_pool
from repro.workloads.model import FunctionDefinition

SCHEDULERS = ("round-robin", "least-assigned", "warm-affinity", "least-loaded-live")

#: Schedulers whose decisions read live simulation state, so routing must
#: happen *inside* the timeline (at each request's arrival time).
DEFERRED_SCHEDULERS = ("least-loaded-live",)


def warm_name_digest(name: str) -> int:
    """The fixed-size stand-in for a warm function name in load digests.

    ``zlib.crc32`` of the utf-8 name: stable across processes (unlike
    builtin ``hash``), 4 bytes on the wire instead of an arbitrary
    string.  Routing compares digests for membership only, so a crc
    collision could at worst mark one extra node warm -- deterministic
    and identical at every shard count either way.
    """
    return zlib.crc32(name.encode("utf-8"))


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
    """Arrival-order routing state, shared by serial and sharded front-ends.

    The static schedulers' decisions are a pure function of the arrival
    sequence and this object's counters, which is exactly why a sharded
    coordinator can replay them without any live node state.  For
    ``least-loaded-live`` the router offers :meth:`route_from_loads`, the
    digest-fed variant used at epoch boundaries.
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

    def note(self, node: int) -> None:
        """Record an assignment decided elsewhere (live routing)."""
        self.assigned[node] += 1

    def route_static(self, definition: FunctionDefinition) -> int:
        """One static routing decision; advances the router's state."""
        scheduler = self.scheduler
        if scheduler == "round-robin":
            node = self._rr_next
            self._rr_next = (self._rr_next + 1) % self.node_count
        elif scheduler == "least-assigned":
            node = min(range(self.node_count), key=lambda i: self.assigned[i])
        elif scheduler == "warm-affinity":
            node = zlib.crc32(definition.name.encode()) % self.node_count
        else:
            raise ValueError(
                f"{scheduler!r} routes on live state; use route_from_loads "
                "(sharded) or Cluster.route (serial)"
            )
        self.assigned[node] += 1
        return node

    def route_from_loads(
        self, definition: FunctionDefinition, loads: Optional[Dict[int, dict]]
    ) -> int:
        """``least-loaded-live`` against epoch-boundary load digests.

        ``loads`` maps node id to the last epoch report's digest:
        ``used_bytes`` plus ``warm``, the sorted ``zlib.crc32`` values of
        the node's warm function names (:func:`warm_name_digest`) -- a
        fixed-size summary reduced worker-side instead of a per-node
        name dump.  The decision depends only on the digests and the
        router's own counters -- the same for every shard count -- but
        it observes node state one epoch stale, so it is a deliberate
        approximation of the serial policy, not a replica of it.
        """
        stages = {warm_name_digest(stage.name) for stage in definition.stages}
        if loads:
            warm = [
                index
                for index in range(self.node_count)
                if stages.intersection(loads[index]["warm"])
            ]
            candidates = warm or range(self.node_count)
            node = min(
                candidates,
                key=lambda i: (loads[i]["used_bytes"], self.assigned[i], i),
            )
        else:
            node = min(range(self.node_count), key=lambda i: (self.assigned[i], i))
        self.assigned[node] += 1
        return node


class Cluster:
    """A set of invoker nodes behind a routing front-end.

    Every node is constructed over the cluster's shared kernel with a
    *deep copy* of the node config, so stateful knobs (a keep-alive
    policy's histograms, the provisioned map) never leak between nodes.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        manager_factory: Optional[Callable[[], object]] = None,
        kernel: Optional[SimKernel] = None,
    ) -> None:
        from repro.core.baselines import VanillaManager  # avoids module cycle

        self.config = config or ClusterConfig()
        self.kernel = kernel if kernel is not None else SimKernel(
            seed=self.config.node_config.seed
        )
        self._manager_factory = manager_factory or VanillaManager
        self.nodes: List[FaasPlatform] = []
        for index in range(self.config.nodes):
            node_config = copy.deepcopy(self.config.node_config)
            node_config.seed = self.config.node_config.seed + index
            self.nodes.append(
                FaasPlatform(
                    config=node_config,
                    manager=self._manager_factory(),
                    kernel=self.kernel,
                    node_id=index,
                )
            )
        self._router = FrontEndRouter(self.config.nodes, self.config.scheduler)
        #: Submission log: ``(time, definition, node, request_id)`` per
        #: arrival, in submit order (node/id are None for deferred
        #: scheduling).  A sharded run replays exactly these decisions.
        self._submitted: List[
            Tuple[float, FunctionDefinition, Optional[int], Optional[int]]
        ] = []
        #: Request outcomes across all nodes in global completion order.
        self.outcomes: List[RequestOutcome] = []
        self._done_subscription = self.kernel.bus.subscribe(
            self._on_request_done, kinds=(REQUEST_DONE,)
        )

    @property
    def _assigned(self) -> List[int]:
        return self._router.assigned

    def _on_request_done(self, event: Event) -> None:
        self.outcomes.append(event.data["outcome"])

    # -------------------------------------------------------------- routing

    def route(self, definition: FunctionDefinition) -> int:
        """Pick the node index for one request."""
        if self.config.scheduler == "least-loaded-live":
            node = self._route_least_loaded_live(definition)
            self._router.note(node)
            return node
        return self._router.route_static(definition)

    def _route_least_loaded_live(self, definition: FunctionDefinition) -> int:
        """Load-aware warm routing against *current* simulation state."""
        stages = {stage.name for stage in definition.stages}
        warm = [
            index
            for index, node in enumerate(self.nodes)
            if any(
                instance.spec.name in stages
                and (
                    instance.state is InstanceState.FROZEN
                    or (
                        instance.state is InstanceState.IDLE
                        and instance.invocation_count > 0
                    )
                )
                for instance in node.all_instances()
            )
        ]
        candidates = warm or range(len(self.nodes))
        return min(
            candidates,
            key=lambda i: (self.nodes[i].used_bytes(), self._assigned[i], i),
        )

    # -------------------------------------------------------------- running

    def submit(self, arrivals: Sequence[Tuple[float, FunctionDefinition]]) -> None:
        """Queue a batch of (time, definition) arrivals.

        Static schedulers route immediately; live schedulers schedule a
        front-end routing event at each arrival time so the decision sees
        the cluster as it is *then*.
        """
        if self.config.scheduler in DEFERRED_SCHEDULERS:
            for time, definition in arrivals:
                self.kernel.schedule(time, self._route_and_dispatch, (time, definition))
                self._submitted.append((time, definition, None, None))
            return
        for time, definition in arrivals:
            node = self.route(definition)
            request = Request(arrival=time, definition=definition)
            self.nodes[node].submit([request])
            self._submitted.append((time, definition, node, request.id))

    def _route_and_dispatch(self, payload: Tuple[float, FunctionDefinition]) -> None:
        time, definition = payload
        node = self.route(definition)
        self.nodes[node].submit([Request(arrival=time, definition=definition)])

    def run(
        self,
        shards: int = 1,
        epoch_seconds: float = 5.0,
        start_method: Optional[str] = None,
        window_epochs: int = 32,
        checkpoint_dir: Optional[str | Path] = None,
        checkpoint_every: Optional[int] = None,
        resume_from: Optional[str | Path] = None,
        fork: Optional[Dict[str, object]] = None,
    ) -> ClusterStats:
        """Drive the cluster to completion and aggregate.

        With ``shards=1`` (the default) this runs the shared kernel
        serially: events from all nodes interleave in global ``(time,
        seq)`` order, and ``self.outcomes`` accumulates request
        completions in that same order.  With ``shards=N`` the submitted
        arrivals are replayed through :class:`ShardedClusterSession` --
        node partitions run in worker processes, synchronized in
        conservative epochs of ``epoch_seconds`` of simulated time -- and
        the same statistics are aggregated from the workers' results
        (``self.outcomes`` stays empty; the local node objects never ran).

        Checkpointing (session path; forces the session even with
        ``shards=1``, running it on the in-process pool):

        * ``checkpoint_dir`` -- capture ``barrier-<pos>.ckpt`` at every
          window barrier (every ``checkpoint_every`` epochs when given).
        * ``resume_from`` -- restore a captured barrier and run only the
          remaining suffix; the submitted arrival log must be the one
          the capture recorded (``checkpoint-arrivals``).
        * ``fork`` -- with ``resume_from``: change
          ``manager_factory``/``scheduler``/``reseed`` at the barrier
          (see :meth:`ShardedClusterSession.restore`).
        """
        from repro.trace.stats import percentile  # avoids module cycle

        use_session = (
            shards > 1
            or checkpoint_dir is not None
            or checkpoint_every is not None
            or resume_from is not None
        )
        if fork and resume_from is None:
            raise ValueError("fork requires resume_from")
        if not use_session:
            self.kernel.run()
            outcomes = self.outcomes
            latencies = [o.latency for o in outcomes] or [0.0]
            cold = sum(o.cold_boots for o in outcomes)
            return ClusterStats(
                completed=len(outcomes),
                cold_boots=cold,
                cold_boot_rate=cold / len(outcomes) if outcomes else 0.0,
                evictions=sum(node.evictions for node in self.nodes),
                p50_latency=percentile(latencies, 50),
                p99_latency=percentile(latencies, 99),
                per_node_requests=list(self._assigned),
            )

        from repro.sim import checkpoint

        session = ShardedClusterSession(
            self.config,
            self._manager_factory,
            shards=shards,
            epoch_seconds=epoch_seconds,
            start_method=start_method,
            window_epochs=window_epochs,
        )
        deferred = self.config.scheduler in DEFERRED_SCHEDULERS
        if deferred:
            arrivals: Sequence[Tuple] = [
                (time, definition) for time, definition, _, _ in self._submitted
            ]
        else:
            arrivals = self._submitted
        digest = checkpoint.arrivals_digest(arrivals)
        on_barrier = None
        if checkpoint_dir is not None:
            directory = Path(checkpoint_dir)

            def on_barrier(s: "ShardedClusterSession", index: int, pos: int) -> None:
                s.capture(
                    directory / f"barrier-{pos:06d}.ckpt",
                    index,
                    pos,
                    meta={"arrivals_sha256": digest},
                )

        start_index = start_pos = 0
        try:
            if resume_from is not None:
                cursor = session.restore(resume_from, fork=fork)
                recorded = cursor["meta"].get("arrivals_sha256")
                if recorded is not None and recorded != digest:
                    raise checkpoint.CheckpointError(
                        "checkpoint-arrivals",
                        f"checkpoint {resume_from}",
                        "the submitted arrival log is not the one the "
                        "capture recorded",
                    )
                start_index, start_pos = cursor["index"], cursor["pos"]
            session.run_phase(
                arrivals,
                routed=not deferred,
                start_index=start_index,
                start_pos=start_pos,
                checkpoint_every=checkpoint_every,
                on_barrier=on_barrier,
            )
            assigned = (
                list(session.router.assigned) if deferred else list(self._assigned)
            )
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
            per_node_requests=assigned,
        )

    def destroy(self) -> None:
        for node in self.nodes:
            for instance in node.all_instances():
                instance.destroy()


# ------------------------------------------------------------------ shards


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
    #: Stream per-node canonical traces into this directory once the
    #: ``start-trace`` mark arrives (None = never trace).
    trace_dir: Optional[str] = None
    #: Roll canonical records into segmented-archive form here (shared
    #: across shards: each worker writes only its own nodes' segments,
    #: the coordinator finalizes).  Independent of ``trace_dir``.
    archive_dir: Optional[str] = None
    archive_bucket_seconds: float = 60.0
    #: Stream per-node telemetry CSVs here, flushed at every epoch barrier.
    telemetry_dir: Optional[str] = None
    telemetry_interval: float = 1.0
    #: Bound each node's in-memory telemetry ring (rows still stream out).
    telemetry_max_samples: Optional[int] = 512
    #: Dump a cProfile of this worker here (None = no profiling).
    profile_path: Optional[str] = None
    #: Include per-node load digests in every epoch report.  Only the
    #: deferred schedulers pay for them; static-scheduler sessions ship
    #: none at all.
    need_loads: bool = False


class ClusterShardHost:
    """Worker-side shard: a partition of cluster nodes on one kernel.

    Implements the :mod:`repro.sim.shard` host protocol.  The shard's
    nodes share a private kernel seeded exactly like the serial
    cluster's, and each node's platform config carries the same
    node-offset seed -- so every node computes the same event timeline it
    would have computed serially, just interleaved with fewer peers.
    """

    def __init__(self, spec: ClusterShardSpec) -> None:
        # Lazy imports: this constructor is the worker process entry.
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
                    interval=spec.telemetry_interval,
                    max_samples=spec.telemetry_max_samples,
                    stream_csv=Path(spec.telemetry_dir) / f"node{node_id:03d}.csv",
                )
        self._profiler = None
        if spec.profile_path is not None:
            import cProfile

            self._profiler = cProfile.Profile()

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
        if self._profiler is not None:
            self._profiler.enable()
        started = procenv.wall_clock()
        try:
            self.kernel.run(until)
        finally:
            self._busy_wall += procenv.wall_clock() - started
            if self._profiler is not None:
                self._profiler.disable()

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
                from repro.check import check_archive_writer

                check_archive_writer(self._archive)
        for platform in self.platforms.values():
            if platform.oracle is not None:
                platform.oracle.check_now()

    def epoch_report(self, horizon: Optional[float]) -> Dict[str, object]:
        """Snapshot the shard at the window barrier: clock, conservation,
        and -- only when the spec asks for them -- per-node load digests."""
        conservation = {
            "frames_used_bytes": 0,
            "swap_pages": 0,
            "swap_outs": 0,
            "swap_ins": 0,
            "swap_discards": 0,
        }
        loads: Dict[int, dict] = {}
        for node_id, platform in self.platforms.items():
            physical = platform.physical
            conservation["frames_used_bytes"] += physical.used_bytes
            conservation["swap_pages"] += physical.swap.pages
            conservation["swap_outs"] += physical.swap.total_swap_outs
            conservation["swap_ins"] += physical.swap.total_swap_ins
            conservation["swap_discards"] += physical.swap.total_discards
            if self.spec.need_loads:
                warm_names = {
                    instance.spec.name
                    for instance in platform.all_instances()
                    if instance.state is InstanceState.FROZEN
                    or (
                        instance.state is InstanceState.IDLE
                        and instance.invocation_count > 0
                    )
                }
                loads[node_id] = {
                    "used_bytes": platform.used_bytes(),
                    "warm": sorted(warm_name_digest(name) for name in warm_names),
                }
        return {
            "shard": self.spec.shard,
            "clock": self.kernel.now,
            "events": self.kernel.events_processed,
            "loads": loads,
            "conservation": conservation,
        }

    # --------------------------------------------------------- checkpoints

    def reopen_outputs(self) -> None:
        """Re-attach streamed outputs after a checkpoint restore.

        Trace and telemetry streams are truncated back to their barrier
        offsets and reopened for append.  Archive segments the previous
        life closed *after* the barrier are pruned: their ``(bucket,
        node)`` cells are absent from the restored writer's bookkeeping,
        so leaving the files behind would poison the shared root with
        orphans no footer accounts for.
        """
        for sink in self._sinks.values():
            sink.reopen_outputs()
        for recorder in self._recorders.values():
            recorder.reopen_outputs()
        if self._archive is not None:
            from repro.trace.archive import parse_segment_name

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
            if self.spec.trace_dir is None and self.spec.archive_dir is None:
                return
            if self.spec.archive_dir is not None:
                from repro.trace.archive import ArchiveWriter  # worker-side lazy

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
                # counter and lines go straight to disk, so worker memory
                # stays flat and the records do not depend on shard count.
                self._sinks[node_id] = EventTraceSink(
                    platform.bus,
                    node=node_id,
                    path=(
                        Path(self.spec.trace_dir) / f"node{node_id:03d}.jsonl"
                        if self.spec.trace_dir is not None
                        else None
                    ),
                    normalize_seq=True,
                    store=False,
                    archive=self._archive,
                )
        elif name == "stop-trace":
            for sink in self._sinks.values():
                sink.detach()
        else:
            raise ValueError(f"unknown mark {name!r}")

    def finalize(self) -> Dict[str, object]:
        """Close streams, final oracle sweep, and ship per-node results."""
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
                "completed": len(platform.outcomes),
                "outcomes": [
                    (outcome.latency, outcome.cold_boots)
                    for outcome in platform.outcomes
                ],
                "cold_boots": platform.cold_boots,
                "warm_starts": platform.warm_starts,
                "evictions": platform.evictions,
                "overcommits": platform.overcommits,
                "cpu_busy": dict(platform.cpu.busy),
                "trace_path": (
                    str(Path(self.spec.trace_dir) / f"node{node_id:03d}.jsonl")
                    if sink is not None and self.spec.trace_dir is not None
                    else None
                ),
                "trace_events": sink.count if sink is not None else 0,
                "telemetry_path": str(
                    Path(self.spec.telemetry_dir) / f"node{node_id:03d}.csv"
                )
                if recorder is not None
                else None,
            }
        archive_segments: List[Dict[str, object]] = []
        archive_events = 0
        if self._archive is not None:
            # No manifest: this worker wrote only its own nodes' segments.
            # Ship their footers (the out-of-pipe trace manifest: name,
            # payload sha256, event count per segment) so the coordinator
            # can finalize the shared root without re-reading every
            # segment it already trusts.
            summary = self._archive.close(manifest=False)
            archive_segments = list(summary["segments"])
            archive_events = summary["events"]
            self._archive = None
        if self._profiler is not None:
            self._profiler.dump_stats(self.spec.profile_path)
        return {
            "shard": self.spec.shard,
            "events": self.kernel.events_processed,
            "busy_wall_seconds": self._busy_wall,
            "archive_segments": archive_segments,
            "archive_events": archive_events,
            "profile_path": self.spec.profile_path,
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
        # The protocol is no longer a choice, but it stays in the hashed
        # description: without it, every checkpoint captured by an
        # earlier build would fail ``checkpoint-config`` on resume.
        "protocol": "batched",
        "window_epochs": window_epochs,
    }
    return hashlib.sha256(
        json.dumps(description, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


class ShardedClusterSession:
    """Coordinator of one sharded cluster run.

    Owns the shard pool, the front-end router, and the conservative epoch
    loop.  All scheduling decisions are made here -- deterministically,
    from the arrival sequence plus previous-epoch load digests -- so the
    workers never interact with each other and the epoch horizon is a
    safe lower bound on cross-shard event times.

    With ``shards=1`` (or ``processes=False``) the identical protocol
    drives in-process hosts: that *serial twin* is the reference leg of
    the digest gate, reducing the serial/sharded comparison to exactly
    one variable -- how nodes were partitioned across kernels.

    The session grants up to ``window_epochs`` epochs per pipe message,
    computes adaptive horizons from the submission log, interns
    definitions per shard, and ships load digests only when routing
    consumes them.  Deferred schedulers force an effective window of one
    epoch regardless of ``window_epochs``: their routing feeds on
    previous-epoch load digests, so granting epoch *k+1* before
    absorbing epoch *k*'s report would break conservative-horizon
    safety.
    """

    def __init__(
        self,
        config: ClusterConfig,
        manager_factory: Optional[Callable[[], object]] = None,
        shards: int = 1,
        epoch_seconds: float = 5.0,
        processes: Optional[bool] = None,
        window_epochs: int = 32,
        trace_dir: Optional[str] = None,
        archive_dir: Optional[str] = None,
        archive_bucket_seconds: float = 60.0,
        telemetry_dir: Optional[str] = None,
        telemetry_interval: float = 1.0,
        telemetry_max_samples: Optional[int] = 512,
        profile_dir: Optional[str] = None,
        start_method: Optional[str] = None,
    ) -> None:
        from repro.core.baselines import VanillaManager  # avoids module cycle

        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if window_epochs < 1:
            raise ValueError("window_epochs must be >= 1")
        factory = manager_factory or VanillaManager
        self.config = config
        self.epoch_seconds = float(epoch_seconds)
        need_loads = config.scheduler in DEFERRED_SCHEDULERS
        #: Epochs granted per pipe message.  Deferred schedulers run a
        #: window of one (see class docstring).
        self.window_epochs = 1 if need_loads else window_epochs
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
                    trace_dir=trace_dir,
                    archive_dir=archive_dir,
                    archive_bucket_seconds=archive_bucket_seconds,
                    telemetry_dir=telemetry_dir,
                    telemetry_interval=telemetry_interval,
                    telemetry_max_samples=telemetry_max_samples,
                    profile_path=(
                        str(Path(profile_dir) / f"shard{shard}.prof")
                        if profile_dir is not None
                        else None
                    ),
                    need_loads=need_loads,
                )
            )
        if processes is None:
            processes = self.shards > 1
        self.pool = make_pool(
            ClusterShardHost,
            specs,
            processes=processes,
            start_method=start_method,
        )
        #: Stable digest of everything that shapes this session's
        #: timeline; a checkpoint captured by a session with a different
        #: fingerprint is refused at restore (``checkpoint-config``).
        self._fingerprint = _session_fingerprint(
            config, factory, self.shards, self.epoch_seconds, self.window_epochs
        )
        self._request_ids = 0
        self._loads: Optional[Dict[int, dict]] = None
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
        self.archive_events = 0

    # --------------------------------------------------------- accounting

    @property
    def round_trips(self) -> int:
        """Coordinator barrier exchanges so far (windows + marks + finish)."""
        return self.pool.round_trips

    @property
    def pipe_bytes(self) -> int:
        """Exact framed bytes moved through the worker pipes (both ways)."""
        return self.pool.pipe_bytes

    # ------------------------------------------------------------- routing

    def route(self, definition: FunctionDefinition) -> int:
        if self.config.scheduler in DEFERRED_SCHEDULERS:
            return self.router.route_from_loads(definition, self._loads)
        return self.router.route_static(definition)

    # ------------------------------------------------------------- driving

    def phase_horizons(
        self, times: Sequence[float], start: float, end: float
    ) -> List[Optional[float]]:
        """The phase's epoch horizons, drain epoch included.

        Density-adaptive (:func:`repro.sim.shard.adaptive_horizons`),
        with every arrival time strictly below the last finite horizon.
        The trailing ``None`` is the drain-to-quiescence epoch every
        phase ends with.  A pure function of the submission log, so any
        shard count derives the identical epoch structure.
        """
        horizons: List[Optional[float]] = list(
            adaptive_horizons(times, start, end, self.epoch_seconds)
        )
        horizons.append(None)
        return horizons

    def run_phase(
        self,
        arrivals: Sequence[Tuple],
        start: float = 0.0,
        end: Optional[float] = None,
        routed: bool = False,
        start_index: int = 0,
        start_pos: int = 0,
        checkpoint_every: Optional[int] = None,
        on_barrier: Optional[Callable[["ShardedClusterSession", int, int], None]] = None,
    ) -> None:
        """Feed one arrival batch through conservative epochs, then drain.

        ``arrivals`` must be in submit order with nondecreasing times
        (what :class:`~repro.trace.generator.TraceGenerator` produces):
        items are ``(time, definition)`` -- routed here -- or, with
        ``routed=True``, pre-decided ``(time, definition, node,
        request_id)`` tuples from a :class:`Cluster` submission log.
        The phase's horizons come from :meth:`phase_horizons`; windows of
        up to ``window_epochs`` of them are granted per pipe message,
        each epoch's arrivals routed coordinator-side into per-shard
        payloads.  The final (``None``) horizon drains every shard to
        quiescence so in-flight requests complete before the phase
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
        if end is None:
            end = arrivals[-1][0] if arrivals else start
        horizons = self.phase_horizons(
            [item[0] for item in arrivals], start, end
        )
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
                    item = arrivals[index]
                    index += 1
                    if routed:
                        time, definition, node, request_id = item
                    else:
                        time, definition = item
                        node = self.route(definition)
                        self._request_ids += 1
                        request_id = self._request_ids
                    shard = self._shard_of[node]
                    name = definition.name
                    if name not in self._shipped[shard]:
                        self._shipped[shard].add(name)
                        preambles[shard][name] = definition
                    payloads[shard][j].append((node, time, name, request_id))
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
        # Lazy import: repro.check reaches back into repro.faas.
        from repro.check import check_shard_conservation

        check_shard_conservation(reports, horizon)
        self.epochs += epochs
        self.clock = max(report["clock"] for report in reports)
        self.events = sum(report["events"] for report in reports)
        loads: Dict[int, dict] = {}
        for report in reports:
            loads.update(report["loads"])
        self._loads = loads

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
        from repro.sim import checkpoint

        state = {
            "coordinator": {
                "router": self.router,
                "request_ids": self._request_ids,
                "loads": self._loads,
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
        (coordinator-side; must stay on the same side of the
        static/deferred divide) plus ``manager_factory``/``reseed``
        (worker-side, see :meth:`ClusterShardHost.apply_fork`).  An
        empty/None fork replays the captured run bit for bit.
        """
        from repro.sim import checkpoint

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
            if (scheduler in DEFERRED_SCHEDULERS) != (
                self.config.scheduler in DEFERRED_SCHEDULERS
            ):
                raise ValueError(
                    "a fork cannot cross the static/deferred scheduler "
                    "boundary: the wire protocol differs"
                )
        coordinator = state["coordinator"]
        self.router = coordinator["router"]
        self._request_ids = coordinator["request_ids"]
        self._loads = coordinator["loads"]
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
        """Collect per-node results from every shard, keyed by node id.

        Also gathers the coordination-cost leftovers: the slowest
        worker's busy wall (``worker_busy_seconds``, the subtrahend of
        ``coordination_overhead``) and the shipped archive-segment
        footers (``archive_footers``/``archive_events``), which
        :func:`repro.trace.archive.finalize_archive` consumes as the
        out-of-pipe trace manifest.
        """
        results = self.pool.finish()
        self.events = sum(result["events"] for result in results)
        self.worker_busy_seconds = max(
            (result.get("busy_wall_seconds", 0.0) for result in results),
            default=0.0,
        )
        self.archive_footers = sorted(
            (
                footer
                for result in results
                for footer in result.get("archive_segments", [])
            ),
            key=lambda footer: (footer["bucket"], footer["node"]),
        )
        self.archive_events = sum(
            result.get("archive_events", 0) for result in results
        )
        nodes: Dict[int, dict] = {}
        for result in results:
            nodes.update(result["nodes"])
        return nodes

    def close(self) -> None:
        self.pool.close()
