"""The invariant oracle: whole-simulation checks at a configurable cadence.

An :class:`InvariantOracle` owns a registry of live objects -- address
spaces grouped by their :class:`~repro.mem.physical.PhysicalMemory`,
mapped files, instances, platforms -- and re-checks every invariant in
:mod:`repro.check.invariants` plus three *stateful* cross-event laws:

* **frozen-no-fault** -- a frozen instance's threads are stopped, so its
  space must not fault while frozen (reclaim legitimately faults; the
  oracle re-baselines when ``reclaim_count`` moves).
* **swap-major-parity** -- every page leaving the swap device either paid
  a major fault or was explicitly discarded; ``total_swap_ins`` must
  track the sum of major faults exactly.
* **reclaim-accounting** -- the ``released_bytes`` Desiccant publishes on
  ``reclaim-done`` events must sum to the manager's
  ``total_released_bytes``, and each instance's last reclaim must not
  have grown its USS.

Cadence:

* ``"event"`` -- after every kernel event (via the kernel probe hook).
* ``"step"``  -- on every ``step`` bus event (after each platform event).
* ``"end"``   -- only when :meth:`finish` is called.

``every=N`` additionally samples 1-in-N occasions (always checking the
first), for suites where a full sweep per event is too slow.

``REPRO_CHECK=1`` in the environment makes every
:class:`~repro.faas.platform.FaasPlatform` attach an oracle to itself
(see :func:`maybe_attach_oracle`); ``REPRO_CHECK_CADENCE`` and
``REPRO_CHECK_EVERY`` tune it.  This is how the tier-1 end-to-end tests
run the oracle continuously without knowing about it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import procenv
from repro.check.invariants import (
    Violation,
    _violate,
    check_file,
    check_instance,
    check_physical,
    check_platform,
    check_runtime,
    check_smaps,
    check_space,
)
from repro.faas.instance import FunctionInstance, InstanceState
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.mem.vmm import VirtualAddressSpace

CADENCES = ("event", "step", "end")


@dataclass
class OracleConfig:
    """How often and how thoroughly the oracle sweeps."""

    cadence: str = "step"
    #: Sample 1-in-N check occasions (1 = every occasion).
    every: int = 1

    def __post_init__(self) -> None:
        if self.cadence not in CADENCES:
            raise ValueError(f"unknown cadence {self.cadence!r}; pick from {CADENCES}")
        if self.every < 1:
            raise ValueError("every must be >= 1")


@dataclass
class _SpaceRecord:
    space: VirtualAddressSpace
    major_baseline: int


@dataclass
class _FrozenRecord:
    faults_total: int
    reclaim_count: int
    #: ``len(instance.transitions)`` at baseline time.  Freeze, thaw, and
    #: destroy all append to the transition log, so a changed length means
    #: the instance was not *continuously* frozen since the baseline --
    #: faults from the thawed window are legal and the record is stale.
    transition_count: int = 0


class InvariantOracle:
    """Registry + sweep loop over every conservation law."""

    def __init__(self, config: Optional[OracleConfig] = None) -> None:
        self.config = config or OracleConfig()
        #: id(space) -> record, strong refs kept so closed spaces still
        #: contribute their final major-fault counts to the parity law.
        self._spaces: Dict[int, _SpaceRecord] = {}
        self._files: Dict[int, MappedFile] = {}
        self._physicals: Dict[int, PhysicalMemory] = {}
        self._swap_in_baselines: Dict[int, int] = {}
        self._instances: Dict[int, FunctionInstance] = {}
        self._frozen: Dict[int, _FrozenRecord] = {}
        self._platforms: List[object] = []
        self._released_event_bytes = 0
        self._released_baselines: Dict[int, int] = {}
        self._subscriptions: List[tuple] = []
        self._probed_kernels: List[tuple] = []
        self._occasions = 0
        self.checks_run = 0
        self.last_violation: Optional[Violation] = None

    # ----------------------------------------------------------- checkpoint

    def __getstate__(self) -> dict:
        """Pickle with the ``id()``-keyed registries made portable.

        Object ids are process-local: restoring a checkpoint re-creates
        every object at a new address, so the raw dicts would be keyed by
        stale ids and every lookup (swap parity baselines, released-bytes
        baselines) would silently miss.  Store the registries as
        object-paired lists and re-key them on restore.
        """
        state = dict(self.__dict__)
        state["_spaces"] = list(self._spaces.values())
        state["_files"] = list(self._files.values())
        physicals = list(self._physicals.values())
        state["_physicals"] = physicals
        state["_swap_in_baselines"] = [
            (physical, self._swap_in_baselines[id(physical)])
            for physical in physicals
        ]
        released = []
        for platform in self._platforms:
            manager = platform.manager
            if id(manager) in self._released_baselines:
                released.append((manager, self._released_baselines[id(manager)]))
        state["_released_baselines"] = released
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._spaces = {id(record.space): record for record in state["_spaces"]}
        self._files = {id(file): file for file in state["_files"]}
        self._physicals = {id(physical): physical for physical in state["_physicals"]}
        self._swap_in_baselines = {
            id(physical): baseline
            for physical, baseline in state["_swap_in_baselines"]
        }
        self._released_baselines = {
            id(manager): baseline
            for manager, baseline in state["_released_baselines"]
        }

    # ---------------------------------------------------------- registration

    def register_space(
        self, space: VirtualAddressSpace, baseline_majors: Optional[int] = None
    ) -> None:
        """Track a space (and its physical memory) from now on.

        ``baseline_majors=None`` means the space is brand new (all its
        major faults count toward swap parity); pass its current count to
        adopt a space with pre-oracle history.
        """
        if id(space) in self._spaces:
            return
        majors = space.faults.major if baseline_majors is None else baseline_majors
        self._spaces[id(space)] = _SpaceRecord(space, majors)
        self.register_physical(space.physical)

    def register_physical(self, physical: PhysicalMemory) -> None:
        if id(physical) not in self._physicals:
            self._physicals[id(physical)] = physical
            self._swap_in_baselines[id(physical)] = physical.swap.total_swap_ins

    def register_file(self, file: MappedFile) -> None:
        self._files.setdefault(id(file), file)

    def register_instance(
        self, instance: FunctionInstance, adopted: bool = False
    ) -> None:
        """Track an instance; ``adopted`` marks pre-oracle history (its
        existing faults do not count toward swap parity)."""
        if instance.id in self._instances:
            return
        self._instances[instance.id] = instance
        space = instance.runtime.space
        self.register_space(
            space, baseline_majors=space.faults.major if adopted else None
        )
        if instance.state is InstanceState.FROZEN:
            self._note_frozen(instance)

    def attach_platform(self, platform) -> None:
        """Watch one platform: its instances, physical memory, library
        pool, and bus events."""
        self._platforms.append(platform)
        self.register_physical(platform.physical)
        manager = platform.manager
        if hasattr(manager, "total_released_bytes"):
            self._released_baselines[id(manager)] = manager.total_released_bytes
        for instance in platform.all_instances():
            self.register_instance(instance, adopted=True)
        self._subscribe_bus(platform.bus, platform.node_id)
        if self.config.cadence == "event":
            self._probe_kernel(platform.kernel)

    def note_manager_swap(self, platform, old_manager) -> None:
        """Carry reclaim accounting across a fork's manager swap.

        Bytes the old manager released stay in the published-events sum,
        so the replacement manager's baseline is shifted down by exactly
        that amount -- the reclaim-published law keeps holding over the
        whole run, not just the post-fork suffix.
        """
        carried = 0
        if hasattr(old_manager, "total_released_bytes"):
            carried = old_manager.total_released_bytes - self._released_baselines.pop(
                id(old_manager), 0
            )
        manager = platform.manager
        if hasattr(manager, "total_released_bytes"):
            self._released_baselines[id(manager)] = (
                manager.total_released_bytes - carried
            )

    def attach_world(self, spaces=(), files=(), instances=(), physical=None) -> None:
        """Direct registration for the fuzzer (no platform, no bus)."""
        if physical is not None:
            self.register_physical(physical)
        for space in spaces:
            self.register_space(space)
        for file in files:
            self.register_file(file)
        for instance in instances:
            self.register_instance(instance)

    def detach(self) -> None:
        for bus, subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions = []
        for kernel, probe in self._probed_kernels:
            kernel.remove_probe(probe)
        self._probed_kernels = []

    # ---------------------------------------------------------------- wiring

    def _subscribe_bus(self, bus, node: Optional[int]) -> None:
        from repro.sim import FREEZE, RECLAIM_DONE, STEP, THAW

        bookkeeping = bus.subscribe(
            self._on_bus_event, kinds=(FREEZE, THAW, RECLAIM_DONE), node=node
        )
        self._subscriptions.append((bus, bookkeeping))
        if self.config.cadence == "step":
            stepper = bus.subscribe(self._on_step, kinds=(STEP,), node=node)
            self._subscriptions.append((bus, stepper))

    def _probe_kernel(self, kernel) -> None:
        probe = kernel.add_probe(self._on_probe)
        self._probed_kernels.append((kernel, probe))

    def _on_bus_event(self, event) -> None:
        from repro.sim import FREEZE, RECLAIM_DONE, THAW

        if event.kind == RECLAIM_DONE:
            self._released_event_bytes += event.get("released_bytes", 0)
            return None
        instance = event.get("instance")
        if instance is None:
            instance = self._instances.get(event.get("instance_id"))
        if instance is None:
            return None
        if event.kind == FREEZE:
            self.register_instance(instance)
            self._note_frozen(instance)
        elif event.kind == THAW:
            self._frozen.pop(instance.id, None)
        return None

    def _on_step(self, _event) -> None:
        self.maybe_check()
        return None

    def _on_probe(self) -> None:
        self.maybe_check()

    def _note_frozen(self, instance: FunctionInstance) -> None:
        self._frozen[instance.id] = _FrozenRecord(
            faults_total=instance.runtime.space.faults.total,
            reclaim_count=instance.reclaim_count,
            transition_count=len(instance.transitions),
        )

    # --------------------------------------------------------------- sweeps

    def maybe_check(self) -> None:
        """One check occasion; honors the 1-in-N sampling."""
        self._occasions += 1
        if (self._occasions - 1) % self.config.every == 0:
            self.check_now()

    def finish(self) -> None:
        """End-of-run sweep (the only sweep under cadence ``"end"``).

        Quiescence also makes the reclaim-published law exact: every
        ``reclaim-done`` event has been delivered, so the published sum
        must equal the manager counters, not merely stay below them.
        """
        self.check_now(final=True)

    def check_now(self, final: bool = False) -> None:
        """Sweep every invariant; raises :class:`Violation` on the first
        broken law (after remembering it in :attr:`last_violation`)."""
        try:
            self._sweep(final)
        except Violation as violation:
            self.last_violation = violation
            raise
        self.checks_run += 1

    def _sweep(self, final: bool = False) -> None:
        self._discover()
        for record in self._spaces.values():
            if not record.space.closed:
                check_space(record.space)
                check_smaps(record.space)
        for file in self._files.values():
            if file.resident_pages() or file._holders:
                check_file(file)
        for physical in self._physicals.values():
            spaces = [
                r.space
                for r in self._spaces.values()
                if r.space.physical is physical
            ]
            files = [f for f in self._files.values() if self._file_on(f, spaces)]
            check_physical(physical, spaces, files)
            self._check_swap_parity(physical)
        for instance in self._instances.values():
            check_instance(instance)
            if instance.state is not InstanceState.DEAD:
                check_runtime(instance.runtime)
        self._check_frozen_quiescence()
        for platform in self._platforms:
            check_platform(platform)
        self._check_reclaim_accounting(final)

    # ------------------------------------------------------------ discovery

    def _discover(self) -> None:
        """Pick up instances/files created since the last sweep."""
        for platform in self._platforms:
            for instance in platform.all_instances():
                self.register_instance(instance)
            pool = getattr(platform, "_library_pool", None)
            if pool is not None:
                for file in pool.files.values():
                    self.register_file(file)
                # The pool's warm host space is what keeps library pages
                # resident; without it the frames-file sum comes up short.
                self.register_space(pool._host)
        for record in list(self._spaces.values()):
            if record.space.closed:
                continue
            for mapping in record.space.mappings():
                if mapping.file is not None:
                    self.register_file(mapping.file)
        for instance in self._instances.values():
            if instance.state is InstanceState.FROZEN:
                if instance.id not in self._frozen:
                    self._note_frozen(instance)
            else:
                self._frozen.pop(instance.id, None)

    @staticmethod
    def _file_on(file: MappedFile, spaces) -> bool:
        """Whether a file's cache frames live on these spaces' physical.

        Files are attributed through the mappings that reference them;
        a file no mapping references anymore must be empty (checked by
        ``frames-file`` summing to the physical counter)."""
        for space in spaces:
            if space.closed:
                continue
            for mapping in space.mappings():
                if mapping.file is file:
                    return True
        return not file.resident_pages()

    # ------------------------------------------------------- stateful laws

    def _check_swap_parity(self, physical: PhysicalMemory) -> None:
        majors = 0
        for record in self._spaces.values():
            if record.space.physical is physical:
                majors += record.space.faults.major - record.major_baseline
        swap_ins = (
            physical.swap.total_swap_ins - self._swap_in_baselines[id(physical)]
        )
        if majors != swap_ins:
            _violate(
                "swap-major-parity",
                "physical",
                f"{swap_ins} swap-ins since attach but {majors} major faults "
                "(a swap-leaving page must pay a major fault or be discarded)",
            )

    def _check_frozen_quiescence(self) -> None:
        for instance_id, record in self._frozen.items():
            instance = self._instances.get(instance_id)
            if instance is None or instance.state is not InstanceState.FROZEN:
                continue
            if instance.reclaim_count != record.reclaim_count:
                # Reclaim runs inside the frozen instance by design (§4.1)
                # and may fault; re-baseline at the new count.
                self._note_frozen(instance)
                continue
            if len(instance.transitions) != record.transition_count:
                # The instance thawed and re-froze entirely between two
                # sweeps (possible under sparse checking): faults from the
                # thawed window are the mutator's, not the frozen period's.
                self._note_frozen(instance)
                continue
            faults = instance.runtime.space.faults.total
            if faults != record.faults_total:
                _violate(
                    "frozen-no-fault",
                    f"instance {instance.id} ({instance.spec.name})",
                    f"faulted while frozen ({record.faults_total} -> {faults}) "
                    "without a reclaim",
                )

    def _check_reclaim_accounting(self, final: bool = False) -> None:
        published = self._released_event_bytes
        counted = 0
        any_manager = False
        for platform in self._platforms:
            manager = platform.manager
            if not hasattr(manager, "total_released_bytes"):
                continue
            any_manager = True
            counted += (
                manager.total_released_bytes
                - self._released_baselines.get(id(manager), 0)
            )
        # Mid-run the counters legitimately lead the events: reclaim-done
        # is published re-entrantly from inside a step dispatch, so the
        # sweep (also a step handler) runs before the bus delivers it.
        # Over-publication is always a bug; equality is required only at
        # quiescence (finish()).
        if any_manager and (published > counted or (final and published != counted)):
            _violate(
                "reclaim-published",
                "manager",
                f"reclaim-done events sum to {published} released bytes, "
                f"manager counters moved {counted}",
            )
        for instance in self._instances.values():
            outcome = instance.last_reclaim
            if outcome is None:
                continue
            label = f"instance {instance.id} ({instance.spec.name})"
            if outcome.released_bytes < 0:
                _violate(
                    "reclaim-released",
                    label,
                    f"negative released_bytes {outcome.released_bytes}",
                )
            # Growth is legal when the heap was paged out before the
            # reclaim (snapshot/swap: uss_before < live bytes) -- the GC
            # must fault live data back in to run.  A resident heap
            # (uss_before >= live bytes) may only grow by what the GC's
            # evacuation materialized (survivors promoted into fresh
            # old-space pages, including unreleasable chunk headers; the
            # vacated young pages are released separately).  Anything
            # beyond that tolerance is a leak.
            evacuated = getattr(outcome, "evacuated_bytes", 0)
            if (
                outcome.uss_after > outcome.uss_before + evacuated
                and outcome.uss_before >= outcome.live_bytes
            ):
                _violate(
                    "reclaim-uss",
                    label,
                    f"reclaim grew USS {outcome.uss_before} -> {outcome.uss_after} "
                    f"(evacuation accounts for {evacuated}) "
                    f"with live bytes {outcome.live_bytes} resident",
                )
            if outcome.released_bytes < outcome.uss_before - outcome.uss_after:
                _violate(
                    "reclaim-conservation",
                    label,
                    f"released_bytes {outcome.released_bytes} < USS drop "
                    f"{outcome.uss_before - outcome.uss_after}",
                )


def maybe_attach_oracle(platform) -> Optional[InvariantOracle]:
    """Attach an oracle to ``platform`` when ``REPRO_CHECK`` asks for it.

    :func:`repro.procenv.check_enabled` reads the flag.
    ``REPRO_CHECK_CADENCE`` (default ``step``) and ``REPRO_CHECK_EVERY``
    (default 1) tune the sweep rate.
    """
    if not procenv.check_enabled():
        return None
    config = OracleConfig(
        cadence=os.environ.get("REPRO_CHECK_CADENCE", "step"),
        every=int(os.environ.get("REPRO_CHECK_EVERY", "1")),
    )
    oracle = InvariantOracle(config)
    oracle.attach_platform(platform)
    return oracle
