"""Unit/integration tests for the Desiccant manager and the baselines."""

import pytest

from repro.core import (
    ActivationController,
    Desiccant,
    DesiccantConfig,
    EagerGcManager,
    SwapManager,
    VanillaManager,
)
from repro.core.profiles import ReclaimProfile
from repro.core.selection import estimated_throughput
from repro.faas.instance import FunctionInstance, InstanceState
from repro.mem.layout import GIB, MIB
from repro.workloads.registry import get_definition


class FakePlatform:
    """Minimal PlatformView for driving managers directly."""

    def __init__(self, instances, capacity_bytes=1 * GIB, idle=1.0):
        self._instances = instances
        self.capacity_bytes = capacity_bytes
        self._idle = idle

    def frozen_instances(self):
        return [i for i in self._instances if i.state is InstanceState.FROZEN]

    def frozen_bytes(self):
        return sum(i.uss() for i in self.frozen_instances())

    def idle_cpu_share(self):
        return self._idle


def frozen_instance(name="sort", invocations=3, frozen_at=0.0):
    spec = get_definition(name).stages[0]
    inst = FunctionInstance(spec)
    inst.boot()
    for _ in range(invocations):
        inst.invoke(0.0)
    inst.freeze(frozen_at)
    return inst


class TestDesiccantStep:
    def test_idle_below_threshold(self):
        desiccant = Desiccant()
        inst = frozen_instance()
        platform = FakePlatform([inst], capacity_bytes=8 * GIB)
        assert desiccant.step(now=100.0, platform=platform) == 0.0
        assert desiccant.reclaims == 0
        inst.destroy()

    def test_reclaims_down_to_target(self):
        desiccant = Desiccant(
            activation=ActivationController(floor=0.05, ceiling=0.05, hysteresis=0.0)
        )
        instances = [frozen_instance() for _ in range(3)]
        platform = FakePlatform(instances, capacity_bytes=1 * GIB)
        before = platform.frozen_bytes()
        cpu = desiccant.step(now=100.0, platform=platform)
        assert cpu > 0
        assert platform.frozen_bytes() < before
        assert desiccant.reclaims >= 1
        for inst in instances:
            inst.destroy()

    def test_respects_freeze_timeout(self):
        desiccant = Desiccant(
            config=DesiccantConfig(freeze_timeout_seconds=50.0),
            activation=ActivationController(floor=0.01, ceiling=0.01),
        )
        inst = frozen_instance()
        platform = FakePlatform([inst], capacity_bytes=256 * MIB)
        desiccant.step(now=10.0, platform=platform)  # frozen for only 10 s
        assert desiccant.reclaims == 0
        desiccant.step(now=100.0, platform=platform)
        assert desiccant.reclaims == 1
        inst.destroy()

    def test_eviction_lowers_threshold_and_drops_profiles(self):
        desiccant = Desiccant()
        desiccant.activation.advance(now=100.0)
        raised = desiccant.activation.threshold
        inst = frozen_instance()
        desiccant.on_eviction(inst, now=100.0)
        assert desiccant.activation.threshold < raised
        inst.destroy()

    def test_non_aggressive_by_default(self):
        assert DesiccantConfig().aggressive is False

    def test_bounded_reclaims_per_step(self):
        desiccant = Desiccant(
            config=DesiccantConfig(max_reclaims_per_step=2, freeze_timeout_seconds=0),
            activation=ActivationController(floor=0.01, ceiling=0.01, hysteresis=0.0),
        )
        instances = [frozen_instance("time", 1) for _ in range(5)]
        platform = FakePlatform(instances, capacity_bytes=64 * MIB)
        desiccant.step(now=100.0, platform=platform)
        assert desiccant.reclaims <= 2
        for inst in instances:
            inst.destroy()


class TestVictimSelection:
    def test_victims_follow_a_fresh_ranking_of_every_eligible_instance(self):
        """Each victim is the head of ``sorted(eligible, key=(-throughput,
        id))`` taken afresh over every eligible instance, while most of the
        frozen set is already reclaimed or too young."""
        desiccant = Desiccant(
            config=DesiccantConfig(max_reclaims_per_step=16),
            activation=ActivationController(floor=0.01, ceiling=0.01, hysteresis=0.0),
        )
        timeout = desiccant.config.freeze_timeout_seconds
        reclaimed = [frozen_instance(name, 2) for name in ("sort", "file-hash", "time") * 3]
        for inst in reclaimed:
            inst.reclaimed_this_freeze = True
        # An earlier file-hash reclaim: its function keeps its own estimate.
        desiccant.profiles.record(reclaimed[1].id, "file-hash", ReclaimProfile(2 * MIB, 0.01))
        young = [frozen_instance(name, 2, frozen_at=99.8) for name in ("sort", "file-hash")]
        # Same function, same history: the two tie on throughput.
        tied = [frozen_instance("sort", 3) for _ in range(2)]
        others = [frozen_instance("file-hash", 2), frozen_instance("time", 1)]
        instances = reclaimed + young + tied + others
        platform = FakePlatform(instances, capacity_bytes=64 * MIB)

        def fresh_ranking(now):
            eligible = [
                i
                for i in platform.frozen_instances()
                if i.frozen_for(now) >= timeout and not i.reclaimed_this_freeze
            ]
            scored = [
                (
                    estimated_throughput(
                        i.heap_resident_bytes(), *desiccant.profiles.estimate(i.id, i.spec.name)
                    ),
                    i.id,
                )
                for i in eligible
            ]
            return sorted(scored, key=lambda pair: (-pair[0], pair[1]))

        victims, expected, rankings = [], [], []
        reclaim = desiccant.reclaim
        clock = {}

        def spying_reclaim(instance, cpu_share=1.0):
            ranking = fresh_ranking(clock["now"])
            rankings.append(ranking)
            expected.append(ranking[0][1])
            victims.append(instance.id)
            cpu = reclaim(instance, cpu_share=cpu_share)
            # A costly profile for the victim's function: its rivals of the
            # same function fall in the very next ranking, which a ranking
            # taken before this reclaim would miss.
            desiccant.profiles.record(instance.id, instance.spec.name, ReclaimProfile(0, 1.0))
            return cpu

        desiccant.reclaim = spying_reclaim
        for now in (100.0, 101.0):  # the young pair comes of age in between
            clock["now"] = now
            desiccant.step(now=now, platform=platform)

        assert victims == expected
        assert sorted(victims) == sorted(i.id for i in tied + others + young)
        first, second = rankings[0][:2]
        assert first[0] == second[0] and {first[1], second[1]} == {i.id for i in tied}
        assert victims[0] == min(i.id for i in tied)
        # The first ranking, kept for the whole step, picks other victims.
        assert victims[:4] != [iid for _, iid in rankings[0]]
        assert set(victims[-2:]) == {i.id for i in young}
        for inst in instances:
            inst.destroy()


class TestBaselines:
    def test_vanilla_is_inert(self):
        manager = VanillaManager()
        inst = frozen_instance()
        platform = FakePlatform([inst])
        assert manager.on_invocation_end(inst, 0.0) == 0.0
        assert manager.step(0.0, platform) == 0.0
        inst.destroy()

    def test_eager_runs_gc_on_exit(self):
        manager = EagerGcManager()
        spec = get_definition("sort").stages[0]
        inst = FunctionInstance(spec)
        inst.boot()
        inst.invoke()
        seconds = manager.on_invocation_end(inst, 0.0)
        assert seconds > 0
        assert manager.gc_count == 1
        assert inst.runtime.full_gc_count >= 1
        inst.destroy()

    def test_swap_pushes_pages_out_under_pressure(self):
        manager = SwapManager(
            activation=ActivationController(floor=0.01, ceiling=0.01, hysteresis=0.0),
            freeze_timeout=0.0,
        )
        inst = frozen_instance()
        platform = FakePlatform([inst], capacity_bytes=64 * MIB)
        manager.step(now=100.0, platform=platform)
        assert manager.swapped_instances == 1
        assert inst.runtime.space.physical.swap.pages > 0
        assert inst.uss() < 1 * MIB
        inst.destroy()

    def test_swap_requires_frozen(self):
        manager = SwapManager()
        spec = get_definition("sort").stages[0]
        inst = FunctionInstance(spec)
        inst.boot()
        with pytest.raises(RuntimeError):
            manager.swap_out(inst)
        inst.destroy()

    def test_swapped_instance_pays_major_faults_on_resume(self):
        manager = SwapManager()
        inst = frozen_instance()
        manager.swap_out(inst)
        inst.thaw()
        result = inst.invoke()
        assert inst.runtime.space.faults.major > 0
        assert result.fault_seconds > 0
        inst.destroy()
