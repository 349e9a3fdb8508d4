"""One FaaS instance: a container wrapping a managed runtime.

Lifecycle mirrors OpenWhisk's (§2.1): the platform cold-boots a container,
runs an invocation, then immediately *freezes* it (``docker pause``) -- all
threads stop, so no GC can run until the instance is thawed for the next
request or destroyed by eviction.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, Optional

from repro.mem.layout import MIB, PAGE_SIZE
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.runtime.base import ManagedRuntime, ReclaimOutcome
from repro.runtime.cpython import CPythonConfig, CPythonRuntime
from repro.runtime.hotspot import HotSpotConfig, HotSpotRuntime
from repro.runtime.v8 import V8Config, V8Runtime
from repro.workloads.model import FunctionModel, FunctionSpec, InvocationResult

_instance_ids = itertools.count(1)

#: Wall-clock cost of thawing a frozen container (docker unpause).
THAW_SECONDS = 0.004
#: Wall-clock cost of freezing (docker pause).
FREEZE_SECONDS = 0.002
#: Wall-clock cost of restoring a snapshot before the page-ins (§2.1: AWS
#: SnapStart takes over 100 ms for a Java instance).
SNAPSHOT_RESTORE_SECONDS = 0.1


class InstanceState(enum.Enum):
    IDLE = "idle"  # booted, never frozen yet / just thawed
    RUNNING = "running"
    FROZEN = "frozen"
    DEAD = "dead"


def runtime_for(
    spec: FunctionSpec,
    memory_budget: int,
    physical: Optional[PhysicalMemory] = None,
    shared_files: Optional[Dict[str, MappedFile]] = None,
    name: Optional[str] = None,
) -> ManagedRuntime:
    """Build the right runtime simulator for a function's language."""
    name = name or f"{spec.name}-rt"
    if spec.language == "java":
        return HotSpotRuntime(
            name,
            HotSpotConfig(memory_budget=memory_budget),
            physical=physical,
            shared_files=shared_files,
        )
    if spec.language == "javascript":
        return V8Runtime(
            name,
            V8Config(memory_budget=memory_budget),
            physical=physical,
            shared_files=shared_files,
        )
    if spec.language == "python":
        return CPythonRuntime(
            name,
            CPythonConfig(memory_budget=memory_budget),
            physical=physical,
            shared_files=shared_files,
        )
    if spec.language == "go":
        from repro.runtime.golang import GoConfig, GoRuntime

        return GoRuntime(
            name,
            GoConfig(memory_budget=memory_budget),
            physical=physical,
            shared_files=shared_files,
        )
    raise ValueError(f"unsupported language {spec.language!r}")


class FunctionInstance:
    """A container executing one function stage, with freeze semantics."""

    def __init__(
        self,
        spec: FunctionSpec,
        memory_budget: int = 256 * MIB,
        physical: Optional[PhysicalMemory] = None,
        shared_files: Optional[Dict[str, MappedFile]] = None,
        seed: int = 0,
    ) -> None:
        self.id = next(_instance_ids)
        self.spec = spec
        self.memory_budget = memory_budget
        self.runtime = runtime_for(
            spec,
            memory_budget,
            physical=physical,
            shared_files=shared_files,
            name=f"{spec.name}#{self.id}",
        )
        self.model = FunctionModel(spec, seed=seed)
        self._state = InstanceState.IDLE
        #: Optional ``(instance, previous, new)`` callback fired on every
        #: state change, however it happens (method or direct assignment);
        #: the platform's incremental bookkeeping hangs off it.
        self.state_listener: Optional[
            Callable[["FunctionInstance", InstanceState, InstanceState], None]
        ] = None
        self.frozen_since: Optional[float] = None
        self.last_used_at: float = 0.0
        self.invocation_count = 0
        self.reclaim_count = 0
        self.last_reclaim: Optional[ReclaimOutcome] = None
        #: Set when Desiccant reclaims during the current freeze; a second
        #: pass would release nothing, so selection skips such instances.
        self.reclaimed_this_freeze = False
        #: Ditto for the swap baseline.
        self.swapped_this_freeze = False
        #: (time, state) transition log; drives the §2.1 heartbeat probe.
        self.transitions: list = []
        #: Set while the instance lives as an on-disk snapshot.
        self.snapshotted = False
        #: Cumulative bytes the snapshots wrote to storage (private pages)
        #: and dropped from the page cache (clean file pages).
        self.snapshot_swapped_bytes = 0
        self.snapshot_dropped_bytes = 0

    @property
    def state(self) -> InstanceState:
        return self._state

    @state.setter
    def state(self, value: InstanceState) -> None:
        previous = self._state
        if value is previous:
            return
        self._state = value
        if self.state_listener is not None:
            self.state_listener(self, previous, value)

    # ------------------------------------------------------------ lifecycle

    def boot(self, now: float = 0.0) -> float:
        """Cold-boot the container; returns CPU seconds consumed."""
        seconds = self.runtime.boot()
        self.transitions.append((now, InstanceState.IDLE))
        return seconds

    def invoke(self, now: float = 0.0) -> InvocationResult:
        """Run one invocation (the instance must not be frozen)."""
        if self.state is InstanceState.FROZEN:
            raise RuntimeError(f"instance {self.id} is frozen; thaw it first")
        if self.state is InstanceState.DEAD:
            raise RuntimeError(f"instance {self.id} is dead")
        self.state = InstanceState.RUNNING
        result = self.model.invoke(self.runtime)
        self.state = InstanceState.IDLE
        self.invocation_count += 1
        self.last_used_at = now
        return result

    def freeze(self, now: float = 0.0) -> float:
        """Pause the container (threads stop; GC can no longer run)."""
        if self.state is not InstanceState.IDLE:
            raise RuntimeError(f"cannot freeze instance in state {self.state}")
        self.state = InstanceState.FROZEN
        self.frozen_since = now
        self.transitions.append((now, InstanceState.FROZEN))
        return FREEZE_SECONDS

    def thaw(self, now: float = 0.0) -> float:
        """Unpause for the next request (restoring a snapshot if needed).

        A snapshotted instance pays the §2.1 restore latency here; the
        page-ins themselves surface as major faults when the next
        invocation touches its working set."""
        if self.state is not InstanceState.FROZEN:
            raise RuntimeError(f"cannot thaw instance in state {self.state}")
        self.state = InstanceState.IDLE
        self.frozen_since = None
        self.reclaimed_this_freeze = False
        self.swapped_this_freeze = False
        self.transitions.append((now, InstanceState.IDLE))
        if self.snapshotted:
            self.snapshotted = False
            return SNAPSHOT_RESTORE_SECONDS
        return THAW_SECONDS

    def snapshot(self, now: float = 0.0) -> float:
        """Checkpoint the instance to disk (§2.1's SnapStart-style
        alternative): every private page moves to storage, so the cached
        instance costs (almost) no memory while frozen."""
        seconds = self.freeze(now)
        space = self.runtime.space
        for mapping in list(space.mappings()):
            moved = space.swap_out_range(mapping.start, mapping.length)
            self.snapshot_swapped_bytes += moved.swapped * PAGE_SIZE
            self.snapshot_dropped_bytes += moved.dropped * PAGE_SIZE
        self.snapshotted = True
        return seconds

    def destroy(self, now: float = 0.0) -> None:
        """Evict: tear down the container and all its memory."""
        if self.state is InstanceState.DEAD:
            return
        self.runtime.destroy()
        self.state = InstanceState.DEAD
        self.frozen_since = None
        self.transitions.append((now, InstanceState.DEAD))

    # -------------------------------------------------------------- reclaim

    def reclaim(self, aggressive: bool = False) -> ReclaimOutcome:
        """Run Desiccant's reclaim inside the (frozen) instance.

        The platform briefly schedules the runtime's reclaim thread; the
        instance stays frozen from the user's perspective, and the CPU time
        is billed to the platform, not the function (§4.1).
        """
        if self.state is not InstanceState.FROZEN:
            raise RuntimeError("reclaim targets frozen instances only")
        outcome = self.runtime.reclaim(aggressive=aggressive)
        self.reclaim_count += 1
        self.last_reclaim = outcome
        return outcome

    def frozen_for(self, now: float) -> float:
        """Seconds this instance has been frozen (0 when not frozen)."""
        if self.frozen_since is None:
            return 0.0
        return max(0.0, now - self.frozen_since)

    # -------------------------------------------------------------- metrics

    def uss(self) -> int:
        return self.runtime.uss()

    def ideal_uss(self) -> int:
        return self.runtime.ideal_uss()

    def heap_resident_bytes(self) -> int:
        return self.runtime.heap_resident_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInstance({self.id}, {self.spec.name}, {self.state.value})"
