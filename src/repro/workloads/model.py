"""Function models: how one invocation exercises a managed runtime."""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.mem.layout import KIB, MIB
from repro.runtime.base import ManagedRuntime


@dataclass(frozen=True)
class FunctionSpec:
    """One function (or one stage of a chained function)."""

    name: str
    language: str  # "java" | "javascript" | "python"
    description: str
    #: Wall execution time of the warm function at its CPU share.
    base_exec_seconds: float
    #: Short-lived garbage allocated per invocation (dies immediately).
    ephemeral_bytes: int
    #: Data live for the whole invocation (dies at exit -> frozen garbage).
    frame_bytes: int
    #: Cached state allocated on the first invocation, live thereafter.
    persistent_bytes: int = 512 * KIB
    #: Extra one-off allocation on the first invocation (class loading,
    #: module initialization) -- mostly garbage afterwards.
    init_ephemeral_bytes: int = 0
    #: Allocation granularity; smaller objects -> more allocator pressure.
    object_size: int = 32 * KIB
    #: JIT profile: code volume, invocations to warm, cold-run penalty.
    code_size: int = 192 * KIB
    warm_units: int = 4
    interp_penalty: float = 1.25
    #: Intermediate data handed to the next chain stage (stays live after
    #: exit until the consumer has run -- the §5.2 mapreduce effect).
    handoff_bytes: int = 0
    #: Relative jitter applied to times and allocation volumes.
    jitter: float = 0.08

    def __post_init__(self) -> None:
        if self.base_exec_seconds <= 0:
            raise ValueError(f"{self.name}: exec time must be positive")
        if min(self.ephemeral_bytes, self.frame_bytes, self.persistent_bytes) < 0:
            raise ValueError(f"{self.name}: byte volumes must be non-negative")


@dataclass(frozen=True)
class FunctionDefinition:
    """A deployable function: one stage, or a chain of stages.

    Chained entries in Table 1 ("mapreduce (2)") run each stage in its own
    instance; the definition is the unit users invoke.
    """

    name: str
    language: str
    description: str
    stages: Tuple[FunctionSpec, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError(f"{self.name}: needs at least one stage")
        for stage in self.stages:
            if stage.language != self.language:
                raise ValueError(f"{self.name}: stage language mismatch")

    @property
    def is_chain(self) -> bool:
        return len(self.stages) > 1

    @property
    def total_exec_seconds(self) -> float:
        return sum(s.base_exec_seconds for s in self.stages)

    def display_name(self) -> str:
        """Table 1 style: chains carry their stage count."""
        if self.is_chain:
            return f"{self.name} ({len(self.stages)})"
        return self.name


@dataclass
class InvocationResult:
    """What one invocation cost and produced."""

    cpu_seconds: float
    gc_seconds: float
    fault_seconds: float
    jit_multiplier: float
    #: Persistent handle for intermediate data to hand to the next stage.
    handoff_oid: Optional[int] = None


class FunctionModel:
    """Drives one :class:`FunctionSpec` against a runtime instance."""

    def __init__(self, spec: FunctionSpec, seed: int = 0) -> None:
        self.spec = spec
        # crc32, not hash(): str hashing is salted per process, and the
        # jitter stream must be reproducible across runs.
        self._rng = random.Random((zlib.crc32(spec.name.encode()) ^ seed) & 0x7FFFFFFF)

    def invoke(self, runtime: ManagedRuntime) -> InvocationResult:
        """Execute one invocation: allocate, account JIT, return the cost."""
        spec = self.spec
        first = runtime.invocations == 0
        runtime.begin_invocation()
        # Read the working set: cached state, native structures, library
        # code.  Free when resident; pays the §5.6 fault bill after
        # swapping or library unmapping.
        runtime.touch_live_data()
        step = runtime.jit.invoke(
            spec.name, spec.code_size, spec.warm_units, spec.interp_penalty
        )
        if first:
            # Initialization data (class loading, module parsing) stays
            # referenced for the whole first invocation and becomes garbage
            # afterwards -- the paper's "first execution enlarges the heap".
            self._alloc_volume(runtime, spec.init_ephemeral_bytes, "frame")
            if spec.persistent_bytes:
                self._alloc_volume(runtime, spec.persistent_bytes, "persistent")
        # Interleave short-lived garbage with invocation-scoped data, the
        # way real request handling mixes temporaries and working set.
        # The per-object draws stay untouched (the jitter stream is part of
        # the workload's identity); consecutive same-shaped draws are merely
        # batched into one alloc_cohort call, which the runtime either
        # unrolls (scalar path) or places as a cohort (batched path).
        eph = self._jittered(spec.ephemeral_bytes)
        frame = self._jittered(spec.frame_bytes)
        total = eph + frame
        run_scope = ""
        run_size = 0
        run_count = 0
        while total > 0:
            scope = "ephemeral" if self._rng.random() < eph / max(1, eph + frame) else "frame"
            size = min(spec.object_size, eph if scope == "ephemeral" else frame)
            if size <= 0:
                scope = "ephemeral" if eph > 0 else "frame"
                size = min(spec.object_size, max(eph, frame))
            if scope == run_scope and size == run_size:
                run_count += 1
            else:
                if run_count:
                    runtime.alloc_cohort(run_count, run_size, scope=run_scope)
                run_scope, run_size, run_count = scope, size, 1
            if scope == "ephemeral":
                eph -= size
            else:
                frame -= size
            total = eph + frame
        if run_count:
            runtime.alloc_cohort(run_count, run_size, scope=run_scope)
        handoff = None
        if spec.handoff_bytes:
            # Intermediate data stays persistently rooted until the consumer
            # stage picks it up.  Under vanilla it sits in eden and dies
            # there once consumed; eager GC at the producer's exit cannot
            # collect it (§5.2) and instead promotes it into the old
            # generation, which is the mapreduce regression of Figure 7.
            handoff = runtime.alloc(
                self._jittered(spec.handoff_bytes), scope="persistent"
            )
        runtime.end_invocation()

        exec_seconds = self._jittered_float(spec.base_exec_seconds)
        cpu = (
            exec_seconds * step.multiplier
            + step.compile_seconds
            + runtime.invocation_gc_seconds
            + runtime.invocation_fault_seconds
        )
        return InvocationResult(
            cpu_seconds=cpu,
            gc_seconds=runtime.invocation_gc_seconds,
            fault_seconds=runtime.invocation_fault_seconds,
            jit_multiplier=step.multiplier,
            handoff_oid=handoff,
        )

    def _alloc_volume(self, runtime: ManagedRuntime, volume: int, scope: str) -> None:
        remaining = self._jittered(volume)
        if remaining <= 0:
            return
        full, tail = divmod(remaining, self.spec.object_size)
        runtime.alloc_cohort(full, self.spec.object_size, scope=scope)
        if tail:
            runtime.alloc(tail, scope=scope)

    def _jittered(self, value: int) -> int:
        if value <= 0:
            return 0
        return max(1, int(value * (1.0 + self.spec.jitter * (2 * self._rng.random() - 1))))

    def _jittered_float(self, value: float) -> float:
        return value * (1.0 + self.spec.jitter * (2 * self._rng.random() - 1))
