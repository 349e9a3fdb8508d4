"""The OpenWhisk-like FaaS platform (§2.1, Figure 5).

A discrete-event simulator hosted on the shared :mod:`repro.sim` kernel:
requests arrive, the platform routes each to a warm frozen instance
(thaw) or cold-boots a new container, executes the function (chains run
stage by stage, each stage in its own instance), and freezes the
instance again.  Memory is managed against an instance-cache capacity:
launching needs the instance's full budget free, and the platform evicts
least-recently-used frozen instances to make room -- each eviction is a
future cold boot, which is the end-to-end cost Figures 9/10 quantify.

The platform owns no private loop, clock, or observer list.  It
*schedules* its handlers on a :class:`~repro.sim.kernel.SimKernel`
(possibly shared with other nodes of a cluster) and *publishes*
structured events -- ``request-arrival``, ``cold-boot``, ``thaw``,
``freeze``, ``eviction``, ``request-done``, plus an internal ``step``
after every event -- on the kernel's bus.  A pluggable
:class:`~repro.core.baselines.MemoryManager` (vanilla / eager / swap /
Desiccant) attaches through :class:`ManagerBridge`, a bus subscriber
that forwards events to the manager's hooks and reports the CPU seconds
they consume back to the platform's accountant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from repro.mem.layout import GIB, MIB
from repro.mem.physical import PhysicalMemory
from repro.faas.cgroup import CpuAccountant
from repro.sim import (
    COLD_BOOT,
    EVICTION,
    Event,
    FREEZE,
    GC,
    INVOCATION_END,
    RECLAIM_DONE,
    RECLAIM_START,
    REQUEST_ARRIVAL,
    REQUEST_DONE,
    STEP,
    THAW,
    SimKernel,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.core.baselines import MemoryManager
from repro.faas.instance import FunctionInstance, InstanceState
from repro.faas.libraries import SharedLibraryPool
from repro.runtime.cpython import CPythonRuntime
from repro.runtime.hotspot import HotSpotRuntime
from repro.runtime.v8 import V8Runtime
from repro.workloads.model import FunctionDefinition, FunctionSpec

_request_ids = itertools.count(1)


@dataclass
class PlatformConfig:
    """Capacity and scheduling knobs (defaults follow the paper's setup)."""

    #: Instance-cache capacity (the §5.3 experiments use 2 GiB).
    capacity_bytes: int = 2 * GIB
    #: Per-instance memory budget (OpenWhisk default).
    instance_memory: int = 256 * MIB
    #: CPUs available to function execution.
    cpus: float = 8.0
    #: CPU share per running instance (commercial configuration, §5.2).
    cpu_share: float = 0.14
    #: Share library pages between instances (OpenWhisk yes, Lambda no).
    shared_libraries: bool = True
    #: Seed offsetting every instance's workload jitter.
    seed: int = 0
    #: Keep-alive/eviction policy; None selects LRU (OpenWhisk's default).
    #: See :mod:`repro.faas.keepalive` for FaasCache- and histogram-style
    #: alternatives.
    eviction_policy: object | None = None
    #: What happens to an instance after its invocation completes (§2.1 /
    #: §5.2's alternative solutions):
    #:   "freeze"    -- docker pause (the platforms the paper studies);
    #:   "destroy"   -- no caching at all, every request cold-boots;
    #:   "keep-warm" -- never pause: background threads keep burning CPU
    #:                  and an idle-time GC may run after a quiet period;
    #:   "snapshot"  -- checkpoint to disk (SnapStart-style): near-zero
    #:                  cached memory, but every reuse pays the restore
    #:                  latency plus page-in faults.
    idle_policy: str = "freeze"
    #: keep-warm only: CPU share each idle instance's background threads
    #: consume (heartbeats, JIT threads -- the §2.1 motivation to freeze).
    idle_background_cpu: float = 0.01
    #: keep-warm only: idle seconds before a background full GC runs.
    idle_gc_delay: float = 10.0
    #: Instances to pre-boot per function at startup (AWS provisioned
    #: concurrency, §2.1); they are booted frozen, ready to thaw.
    provisioned: dict | None = None


@dataclass
class Request:
    """One user invocation of a (possibly chained) function."""

    arrival: float
    definition: FunctionDefinition
    id: int = field(default_factory=lambda: next(_request_ids))


@dataclass
class RequestOutcome:
    """Completed request: timing plus cold-boot exposure."""

    request: Request
    started: float
    finished: float
    cold_boots: int
    queue_seconds: float

    @property
    def latency(self) -> float:
        return self.finished - self.request.arrival


class VersionedList(list):
    """A list with explicit change counters so consumers can cache.

    ``version`` counts membership changes (an instance entering or
    leaving the frozen set); ``adds`` counts only the entries (lazy
    consumers handle removals for free by validating members, so they
    resync on ``adds`` alone); ``state_version`` additionally counts
    in-place changes to members' memory state (a frozen instance's
    address space going dirty, which moves its USS and hence any
    size-dependent eviction priority).  The platform bumps all three
    manually; otherwise this is a plain list, so existing policy code
    that only iterates keeps working unchanged.
    """

    __slots__ = ("version", "adds", "state_version")

    def __init__(self) -> None:
        super().__init__()
        self.version = 0
        self.adds = 0
        self.state_version = 0

    def __reduce__(self):
        # Explicit reduction: the default list-subclass protocol trips
        # over the no-arg ``__init__`` + ``__slots__`` combination, and a
        # checkpoint restore must bring the counters back exactly (stale
        # counters would let cached policy indexes skip a resync).
        return (
            _rebuild_versioned_list,
            (list(self), self.version, self.adds, self.state_version),
        )


def _rebuild_versioned_list(
    items: list, version: int, adds: int, state_version: int
) -> "VersionedList":
    rebuilt = VersionedList()
    rebuilt.extend(items)
    rebuilt.version = version
    rebuilt.adds = adds
    rebuilt.state_version = state_version
    return rebuilt


@dataclass
class _InFlight:
    request: Request
    stage_idx: int = 0
    started: Optional[float] = None
    queue_seconds: float = 0.0
    cold_boots: int = 0
    ready_since: float = 0.0
    #: (instance, handoff oid) from the previous stage, if any.
    handoff: Optional[Tuple[FunctionInstance, int]] = None
    current_instance: Optional[FunctionInstance] = None


class _SpaceDirtier:
    """Picklable address-space change listener.

    Replaces the closure ``_space_dirtier`` used to return: closures
    cannot ride in a checkpoint (repro.sim.checkpoint), while this pair
    of references pickles with the rest of the platform graph.
    """

    __slots__ = ("platform", "instance")

    def __init__(self, platform: "FaasPlatform", instance: FunctionInstance) -> None:
        self.platform = platform
        self.instance = instance

    def __call__(self) -> None:
        self.platform._mark_dirty(self.instance)


class ManagerBridge:
    """Subscribes a :class:`MemoryManager`'s hooks to the platform's bus.

    The managers themselves stay bus-unaware (they are plain policy
    objects, also driven directly by unit tests); the bridge is the only
    place that translates structured events into hook calls.  Each hook's
    CPU cost is returned to :meth:`EventBus.publish`, so the publishing
    platform charges exactly what the old direct calls charged:

    * ``invocation-end`` -> ``on_invocation_end`` (charged as eager-GC
      time and added to the stage's wall clock),
    * ``freeze``         -> ``on_freeze``,
    * ``eviction``       -> ``on_eviction``,
    * ``step``           -> ``step`` (the background sweep; Desiccant's
      activation/selection/reclamation loop lives here).

    When a sweep does work, the bridge publishes ``reclaim-start`` /
    ``reclaim-done`` so traces and telemetry see reclamation without
    knowing the manager's type; an ``invocation-end`` hook that burned
    CPU likewise publishes a ``gc`` event (that is what the eager
    baseline's forced collection is).
    """

    def __init__(self, platform: "FaasPlatform", manager: "MemoryManager") -> None:
        self.platform = platform
        self.manager = manager
        bus, node = platform.bus, platform.node_id
        self._subscriptions = [
            bus.subscribe(self._on_invocation_end, kinds=(INVOCATION_END,), node=node),
            bus.subscribe(self._on_freeze, kinds=(FREEZE,), node=node),
            bus.subscribe(self._on_eviction, kinds=(EVICTION,), node=node),
            bus.subscribe(self._on_step, kinds=(STEP,), node=node),
        ]

    def detach(self) -> None:
        for subscription in self._subscriptions:
            self.platform.bus.unsubscribe(subscription)
        self._subscriptions = []

    # ---------------------------------------------------------------- hooks

    def _on_invocation_end(self, event: Event) -> float:
        instance = event.data["instance"]
        cpu = self.manager.on_invocation_end(instance, event.time)
        if cpu > 0:
            self.platform.bus.publish(
                Event(
                    GC,
                    event.time,
                    event.node,
                    {
                        "instance_id": instance.id,
                        "function": instance.spec.name,
                        "cpu_seconds": cpu,
                        "reason": "invocation-end",
                    },
                )
            )
        return cpu

    def _on_freeze(self, event: Event) -> float:
        return self.manager.on_freeze(event.data["instance"], event.time)

    def _on_eviction(self, event: Event) -> None:
        self.manager.on_eviction(event.data["instance"], event.time)
        return None

    def _on_step(self, event: Event) -> float:
        released_before = getattr(self.manager, "total_released_bytes", 0)
        frozen_before = self.platform.frozen_bytes()
        cpu = self.manager.step(event.time, self.platform)
        if cpu > 0:
            released = getattr(self.manager, "total_released_bytes", 0) - released_before
            bus = self.platform.bus
            bus.publish(
                Event(
                    RECLAIM_START,
                    event.time,
                    event.node,
                    {"frozen_bytes": frozen_before},
                )
            )
            bus.publish(
                Event(
                    RECLAIM_DONE,
                    event.time,
                    event.node,
                    {"cpu_seconds": cpu, "released_bytes": released},
                )
            )
        return cpu


class FaasPlatform:
    """Event-driven FaaS platform with a pluggable memory manager.

    When ``kernel`` is omitted the platform creates a private
    :class:`SimKernel`; a cluster passes one shared kernel (and a
    distinct ``node_id``) to every node so all node timelines merge into
    a single globally ordered execution.
    """

    def __init__(
        self,
        config: PlatformConfig | None = None,
        manager: "MemoryManager | None" = None,
        physical: Optional[PhysicalMemory] = None,
        kernel: Optional[SimKernel] = None,
        node_id: int = 0,
    ) -> None:
        from repro.core.baselines import VanillaManager
        from repro.faas.keepalive import LruEviction, subscribe_policy

        self.config = config or PlatformConfig()
        self.kernel = kernel if kernel is not None else SimKernel(seed=self.config.seed)
        self.bus = self.kernel.bus
        self.node_id = node_id
        self.manager = manager or VanillaManager()
        self.eviction_policy = self.config.eviction_policy or LruEviction()
        self.physical = physical if physical is not None else PhysicalMemory()
        self._library_pool: Optional[SharedLibraryPool] = None
        if self.config.shared_libraries:
            self._library_pool = SharedLibraryPool(
                self.physical,
                runtime_classes=(HotSpotRuntime, V8Runtime, CPythonRuntime),
            )
        self._instances: Dict[str, List[FunctionInstance]] = {}
        self._wait_queue: List[_InFlight] = []
        self._running = 0
        self.cpu = CpuAccountant(cpus=self.config.cpus)
        self.outcomes: List[RequestOutcome] = []
        self.cold_boots = 0
        self.warm_starts = 0
        self.evictions = 0
        self.overcommits = 0
        self._last_event_time = 0.0
        #: Incremental bookkeeping.  Instead of summing every instance's
        #: USS on each query -- the dominant cost of macro-scale replays,
        #: paid before *every* manager step -- the platform keeps running
        #: integer totals and a dirty set of instances whose memory changed
        #: since they were last folded in.  Integer adds/subtracts are exact
        #: and order-independent, so the totals match fresh sums bit for
        #: bit (tests/oracles.py holds the summing reference).
        self._tracked: Dict[int, FunctionInstance] = {}
        self._uss_cache: Dict[int, int] = {}
        self._uss_total = 0
        self._frozen_uss_total = 0
        self._frozen_ids: Dict[int, None] = {}
        self._frozen_list = VersionedList()
        self._dirty: Dict[int, FunctionInstance] = {}
        #: Monotone counter over every bookkeeping change; cached consumers
        #: (Desiccant's ranked candidate index) fold it into fingerprints.
        self.change_epoch = 0
        #: Bus plumbing: the eviction policy's request bookkeeping and the
        #: memory manager's hooks both attach as subscribers -- nothing
        #: calls them directly.
        self._policy_subscription = subscribe_policy(
            self.eviction_policy, self.bus, node=self.node_id
        )
        self._manager_bridge = ManagerBridge(self, self.manager)
        self._provision()
        if self.config.idle_policy not in (
            "freeze", "destroy", "keep-warm", "snapshot"
        ):
            raise ValueError(f"unknown idle policy {self.config.idle_policy!r}")
        from repro.check.oracle import maybe_attach_oracle

        #: Non-None only when REPRO_CHECK=1: the invariant oracle watching
        #: this platform (see repro.check).
        self.oracle = maybe_attach_oracle(self)

    # ----------------------------------------------------------------- time

    @property
    def now(self) -> float:
        return self.kernel.clock.now

    @now.setter
    def now(self, value: float) -> None:
        self.kernel.clock.reset(value)

    # ------------------------------------------------- incremental tracking

    def _register_instance(self, instance: FunctionInstance) -> None:
        """Hook a new instance into the incremental aggregates: watch its
        state transitions (frozen-set membership) and its address space's
        change counter (USS drift), and queue it for the first fold-in."""
        self._tracked[instance.id] = instance
        instance.state_listener = self._on_instance_state
        instance.runtime.space.change_listener = self._space_dirtier(instance)
        self._mark_dirty(instance)

    def _unregister_instance(self, instance: FunctionInstance) -> None:
        self._tracked.pop(instance.id, None)
        instance.state_listener = None
        instance.runtime.space.change_listener = None
        # The next flush sees the id untracked and drops its cached USS.
        self._dirty[instance.id] = instance
        self.change_epoch += 1

    def _space_dirtier(self, instance: FunctionInstance) -> "_SpaceDirtier":
        return _SpaceDirtier(self, instance)

    def _mark_dirty(self, instance: FunctionInstance) -> None:
        self._dirty[instance.id] = instance
        if instance.id in self._frozen_ids:
            # A frozen member's USS moved: size-keyed eviction priorities
            # are stale even though membership is unchanged.
            self._frozen_list.state_version += 1
        self.change_epoch += 1

    def _on_instance_state(
        self,
        instance: FunctionInstance,
        previous: InstanceState,
        value: InstanceState,
    ) -> None:
        cached = self._uss_cache.get(instance.id, 0)
        if previous is InstanceState.FROZEN and instance.id in self._frozen_ids:
            del self._frozen_ids[instance.id]
            self._frozen_list.remove(instance)
            self._frozen_list.version += 1
            self._frozen_uss_total -= cached
        if value is InstanceState.FROZEN:
            self._frozen_ids[instance.id] = None
            self._frozen_list.append(instance)
            self._frozen_list.version += 1
            self._frozen_list.adds += 1
            self._frozen_uss_total += cached
        self._dirty[instance.id] = instance
        self.change_epoch += 1

    def _flush_dirty(self) -> None:
        """Fold dirty instances into the totals: subtract each one's USS
        as last counted, re-measure, add back (unless untracked)."""
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, {}
        for iid, instance in dirty.items():
            previous = self._uss_cache.pop(iid, 0)
            self._uss_total -= previous
            frozen = iid in self._frozen_ids
            if frozen:
                self._frozen_uss_total -= previous
            if iid in self._tracked:
                current = instance.uss()
                self._uss_cache[iid] = current
                self._uss_total += current
                if frozen:
                    self._frozen_uss_total += current

    # ----------------------------------------------------------- accounting

    @property
    def capacity_bytes(self) -> int:
        return self.config.capacity_bytes

    def all_instances(self) -> List[FunctionInstance]:
        return [i for pool in self._instances.values() for i in pool]

    def frozen_instances(self) -> List[FunctionInstance]:
        # The maintained membership list (live, versioned).  Its order is
        # freeze order, not pool order; every consumer breaks ties by
        # instance id, so the two orders are indistinguishable.
        return self._frozen_list

    def frozen_bytes(self) -> int:
        """Accumulated USS of frozen instances (what Desiccant watches)."""
        self._flush_dirty()
        return self._frozen_uss_total

    def evictable_instances(self) -> List[FunctionInstance]:
        """Instances the cache may destroy: frozen ones always; under the
        keep-warm policy, idle (unpaused but not running) ones too."""
        frozen = self.frozen_instances()
        if self.config.idle_policy != "keep-warm":
            return frozen
        evictable = list(frozen)
        evictable += [
            i
            for i in self.all_instances()
            if i.state is InstanceState.IDLE and i.invocation_count > 0
        ]
        return evictable

    def used_bytes(self) -> int:
        """Actual consumption of every cached instance, active or frozen.

        The paper's modified OpenWhisk accounts instances by their real
        memory consumption -- that is what lets reclaimed instances pack
        more densely into the cache.
        """
        self._flush_dirty()
        return self._uss_total

    def available_for_launch(self) -> int:
        return self.capacity_bytes - self.used_bytes()

    def frozen_capacity_bytes(self) -> int:
        """Memory the cache can devote to *frozen* instances: the total,
        minus what running instances use, minus one launch budget of
        headroom.  Desiccant's activation fraction is measured against
        this, so it engages before eviction pressure does."""
        self._flush_dirty()
        active = self._uss_total - self._frozen_uss_total
        return max(1, self.capacity_bytes - self.config.instance_memory - active)

    def idle_cpu_share(self) -> float:
        """Fraction of machine CPU not claimed by running instances."""
        claimed = self._running * self.config.cpu_share
        return max(0.0, (self.config.cpus - claimed) / self.config.cpus)

    @property
    def max_concurrency(self) -> int:
        return max(1, int(self.config.cpus / self.config.cpu_share))

    def _provision(self) -> None:
        """Pre-boot the configured provisioned concurrency (§2.1)."""
        from repro.workloads.registry import get_definition

        for name, count in (self.config.provisioned or {}).items():
            definition = get_definition(name)
            for stage in definition.stages:
                pool = self._instances.setdefault(stage.name, [])
                for k in range(count):
                    instance = FunctionInstance(
                        stage,
                        memory_budget=self.config.instance_memory,
                        physical=self.physical,
                        shared_files=(
                            self._library_pool.files if self._library_pool else None
                        ),
                        seed=self.config.seed + k,
                    )
                    self._register_instance(instance)
                    self.cpu.charge("cold_boot", instance.boot(0.0))
                    instance.freeze(0.0)
                    pool.append(instance)

    # ------------------------------------------------------------- running

    def submit(self, requests: List[Request]) -> None:
        """Schedule arrival events for a batch of requests."""
        for request in requests:
            self.kernel.schedule(
                request.arrival, self._handle_arrival, _InFlight(request=request)
            )

    def run(self, until: Optional[float] = None) -> List[RequestOutcome]:
        """Drive the kernel until its queue drains (or ``until`` passes).

        With a shared kernel this advances *every* attached component --
        a cluster calls it once, not once per node.
        """
        self.kernel.run(until)
        return self.outcomes

    def _emit(self, kind: str, **data) -> float:
        """Publish a structured event for this node; returns the summed
        CPU seconds the subscribers reported.

        The bus skips constructing and dispatching events nobody
        subscribed to (it still consumes a sequence number, so traces
        that attach mid-run see identical seqs)."""
        return self.bus.publish_lazy(kind, self.now, self.node_id, lambda: data)

    # --------------------------------------------------------------- events

    def _handle_arrival(self, flight: _InFlight) -> None:
        self._account_idle_background(self.now)
        self._on_arrival(flight)
        self._post_event()

    def _handle_complete(self, flight: _InFlight) -> None:
        self._account_idle_background(self.now)
        self._on_complete(flight)
        self._post_event()

    def _post_event(self) -> None:
        """The per-event hook cadence: one ``step`` on the bus (manager
        background sweep, telemetry sampling)."""
        self.cpu.charge("reclaim", self._emit(STEP))

    def _on_arrival(self, flight: _InFlight) -> None:
        flight.ready_since = self.now
        self._emit(
            REQUEST_ARRIVAL,
            request_id=flight.request.id,
            function=flight.request.definition.name,
        )
        self._evict_proactively()
        self._try_dispatch(flight)

    def _evict_proactively(self) -> None:
        for victim in self.eviction_policy.proactive_victims(
            self.frozen_instances(), self.now
        ):
            self.evict(victim)

    def _try_dispatch(self, flight: Optional[_InFlight] = None) -> None:
        if flight is not None:
            self._wait_queue.append(flight)
        while self._wait_queue and self._running < self.max_concurrency:
            next_flight = self._wait_queue.pop(0)
            next_flight.queue_seconds += self.now - next_flight.ready_since
            self._start_stage(next_flight)

    def _start_stage(self, flight: _InFlight) -> None:
        spec = flight.request.definition.stages[flight.stage_idx]
        if flight.started is None:
            flight.started = self.now
        instance, cold, setup_wall = self._acquire(spec)
        if cold:
            flight.cold_boots += 1
        if flight.handoff is not None:
            self._consume_handoff(flight)
        instance.state = InstanceState.RUNNING
        self._running += 1
        result = instance.invoke(self.now)
        instance.state = InstanceState.RUNNING  # stays busy until completion
        self.cpu.charge("invocation", result.cpu_seconds)
        mgr_cpu = self._emit(
            INVOCATION_END,
            instance=instance,
            instance_id=instance.id,
            function=instance.spec.name,
            request_id=flight.request.id,
            cpu_seconds=result.cpu_seconds,
        )
        self.cpu.charge("eager_gc", mgr_cpu)
        flight.current_instance = instance
        if result.handoff_oid is not None:
            flight.handoff = (instance, result.handoff_oid)
        wall = setup_wall + result.cpu_seconds + mgr_cpu
        self.kernel.schedule(self.now + wall, self._handle_complete, flight)

    def _on_complete(self, flight: _InFlight) -> None:
        instance = flight.current_instance
        self._running -= 1
        if instance is not None and instance.state is InstanceState.RUNNING:
            instance.state = InstanceState.IDLE
            instance.last_used_at = self.now
            if self.config.idle_policy == "freeze":
                instance.freeze(self.now)
                self.cpu.charge(
                    "invocation",
                    self._emit(
                        FREEZE,
                        instance=instance,
                        instance_id=instance.id,
                        function=instance.spec.name,
                    ),
                )
            elif self.config.idle_policy == "destroy":
                instance.destroy(self.now)
                self._instances[instance.spec.name].remove(instance)
                self._unregister_instance(instance)
            elif self.config.idle_policy == "snapshot":
                instance.snapshot(self.now)
            # keep-warm: the instance simply stays IDLE (threads running).
        flight.current_instance = None
        if flight.stage_idx + 1 < len(flight.request.definition.stages):
            flight.stage_idx += 1
            flight.ready_since = self.now
            self._try_dispatch(flight)
        else:
            outcome = RequestOutcome(
                request=flight.request,
                started=flight.started if flight.started is not None else self.now,
                finished=self.now,
                cold_boots=flight.cold_boots,
                queue_seconds=flight.queue_seconds,
            )
            self.outcomes.append(outcome)
            self._emit(
                REQUEST_DONE,
                outcome=outcome,
                request_id=flight.request.id,
                function=flight.request.definition.name,
                latency=outcome.latency,
                cold_boots=outcome.cold_boots,
            )
            self._try_dispatch()

    def _consume_handoff(self, flight: _InFlight) -> None:
        """The next stage has picked the intermediate data up: the producer
        may let go of it (it becomes ordinary garbage)."""
        producer, oid = flight.handoff
        flight.handoff = None
        if producer.state is not InstanceState.DEAD:
            producer.runtime.free_persistent(oid)

    # ------------------------------------------------------------ instances

    def _acquire(self, spec: FunctionSpec) -> Tuple[FunctionInstance, bool, float]:
        """Find or create an instance for ``spec``.

        Returns ``(instance, was_cold, setup_wall_seconds)``.
        """
        pool = self._instances.setdefault(spec.name, [])
        frozen = [i for i in pool if i.state is InstanceState.FROZEN]
        if frozen:
            instance = max(frozen, key=lambda i: i.last_used_at)
            wall = instance.thaw(self.now)
            self.warm_starts += 1
            self._emit(
                THAW,
                instance=instance,
                instance_id=instance.id,
                function=instance.spec.name,
                thaw_seconds=wall,
            )
            return instance, False, wall
        if self.config.idle_policy == "keep-warm":
            # Warm instances are reusable directly (no unpause needed).
            idle = [i for i in pool if i.state is InstanceState.IDLE]
            if idle:
                instance = max(idle, key=lambda i: i.last_used_at)
                self.warm_starts += 1
                return instance, False, 0.0
        self._make_room()
        instance = FunctionInstance(
            spec,
            memory_budget=self.config.instance_memory,
            physical=self.physical,
            shared_files=self._library_pool.files if self._library_pool else None,
            seed=self.config.seed,
        )
        self._register_instance(instance)
        boot_cpu = instance.boot(self.now)
        self.cpu.charge("cold_boot", boot_cpu)
        pool.append(instance)
        self.cold_boots += 1
        self._emit(
            COLD_BOOT,
            instance=instance,
            instance_id=instance.id,
            function=instance.spec.name,
            boot_cpu_seconds=boot_cpu,
        )
        return instance, True, boot_cpu

    def _account_idle_background(self, until: float) -> None:
        """keep-warm: idle instances' background threads consume CPU
        between events, and a quiet instance runs an idle-time GC."""
        if self.config.idle_policy != "keep-warm":
            self._last_event_time = until
            return
        dt = max(0.0, until - self._last_event_time)
        self._last_event_time = until
        if dt == 0.0:
            return
        idle = [
            i
            for i in self.all_instances()
            if i.state is InstanceState.IDLE and i.invocation_count > 0
        ]
        if idle:
            self.cpu.charge(
                "idle_background", dt * self.config.idle_background_cpu * len(idle)
            )
        for instance in idle:
            if until - instance.last_used_at >= self.config.idle_gc_delay:
                if getattr(instance, "_idle_gc_done_at", None) != instance.last_used_at:
                    gc_cpu = instance.runtime.full_gc(aggressive=False)
                    self.cpu.charge("idle_background", gc_cpu)
                    instance._idle_gc_done_at = instance.last_used_at
                    self._emit(
                        GC,
                        instance=instance,
                        instance_id=instance.id,
                        function=instance.spec.name,
                        cpu_seconds=gc_cpu,
                        reason="idle",
                    )

    def _make_room(self) -> None:
        """Evict LRU frozen instances until one budget fits."""
        while self.available_for_launch() < self.config.instance_memory:
            victim = self._eviction_victim()
            if victim is None:
                # Nothing evictable: proceed overcommitted (the machine has
                # headroom beyond the cache budget; count it for analysis).
                self.overcommits += 1
                return
            self.evict(victim)

    def _eviction_victim(self) -> Optional[FunctionInstance]:
        return self.eviction_policy.choose_victim(
            self.evictable_instances(), self.now
        )

    def evict(self, instance: FunctionInstance) -> None:
        """Destroy a frozen instance (the §4.2 race with reclamation is
        harmless: instances are stateless)."""
        self._emit(
            EVICTION,
            instance=instance,
            instance_id=instance.id,
            function=instance.spec.name,
            freed_bytes=instance.uss(),
        )
        instance.destroy(self.now)
        self._instances[instance.spec.name].remove(instance)
        self._unregister_instance(instance)
        self.evictions += 1

    # -------------------------------------------------------------- helpers

    def reset_metrics(self) -> None:
        """Zero the meters after warmup, keeping instance state (and every
        bus subscription) warm."""
        self.cpu = CpuAccountant(cpus=self.config.cpus)
        self.outcomes = []
        self.cold_boots = 0
        self.warm_starts = 0
        self.evictions = 0
        self.overcommits = 0
        self._last_event_time = 0.0

    def set_manager(self, manager: "MemoryManager") -> None:
        """Swap the memory manager in place (the fork-and-explore hook).

        Detaches the old manager's bus bridge and installs the new
        manager's, so from the next dispatched event on every hook call
        reaches the replacement.  Instance and cache state carry over
        untouched -- exactly what a what-if fork at a checkpoint barrier
        wants.  With an oracle attached, the old manager's accumulated
        reclaim accounting is carried so the reclaim-published law keeps
        holding across the swap.
        """
        old = self.manager
        self._manager_bridge.detach()
        self.manager = manager
        self._manager_bridge = ManagerBridge(self, manager)
        if self.oracle is not None:
            self.oracle.note_manager_swap(self, old)

    def cold_boot_rate(self) -> float:
        """Cold boots per completed request (across all stages)."""
        if not self.outcomes:
            return 0.0
        return sum(o.cold_boots for o in self.outcomes) / len(self.outcomes)
