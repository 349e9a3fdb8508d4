"""Failure injection: the races and deaths §4.2 argues are harmless."""

import pytest

from repro.core import ActivationController, Desiccant
from repro.core.profiles import ProfileStore
from repro.core.reclaimer import reclaim_instance
from repro.faas.instance import FunctionInstance, InstanceState
from repro.faas.platform import FaasPlatform, PlatformConfig, Request
from repro.mem.layout import MIB
from repro.workloads.registry import get_definition


def frozen_instance(name="sort"):
    inst = FunctionInstance(get_definition(name).stages[0])
    inst.boot()
    inst.invoke(0.0)
    inst.freeze(0.0)
    return inst


class TestEvictionRacingReclamation:
    def test_evict_right_after_reclaim_is_safe(self):
        """§4.2: OpenWhisk may evict an instance under reclamation; the
        stateless design makes that a plain destroy."""
        platform = FaasPlatform(manager=Desiccant())
        platform.submit([Request(arrival=0.0, definition=get_definition("sort"))])
        platform.run()
        instance = platform.all_instances()[0]
        platform.manager.reclaim(instance)
        platform.evict(instance)
        assert instance.state is InstanceState.DEAD
        # The platform still serves the function afterwards (cold boot).
        platform.submit([Request(arrival=10.0, definition=get_definition("sort"))])
        outcomes = platform.run()
        assert outcomes[-1].cold_boots == 1

    def test_desiccant_skips_instances_evicted_mid_sweep(self):
        """An instance destroyed between ranking and reclaim must not be
        selected again (DEAD is not FROZEN)."""
        desiccant = Desiccant(
            activation=ActivationController(floor=0.01, ceiling=0.01, hysteresis=0.0)
        )
        desiccant.config.freeze_timeout_seconds = 0.0
        alive = frozen_instance("sort")
        dead = frozen_instance("file-hash")
        dead.destroy()

        class View:
            capacity_bytes = 64 * MIB

            def frozen_instances(self):
                return [alive, dead] if dead.state is not InstanceState.DEAD else [alive]

            def frozen_bytes(self):
                return sum(
                    i.uss()
                    for i in self.frozen_instances()
                    if i.state is InstanceState.FROZEN
                )

            def frozen_capacity_bytes(self):
                return self.capacity_bytes

            def idle_cpu_share(self):
                return 1.0

        desiccant.step(now=100.0, platform=View())
        assert dead.reclaim_count == 0
        assert desiccant.reclaims == alive.reclaim_count
        alive.destroy()


class TestChainFailures:
    def test_producer_evicted_before_consumer_runs(self):
        """The mapper dies holding the handoff: the consumer stage still
        completes; the handoff memory died with the producer."""
        platform = FaasPlatform(config=PlatformConfig())
        definition = get_definition("mapreduce")
        platform.submit([Request(arrival=0.0, definition=definition)])
        platform.run()
        mapper = next(
            i for i in platform.all_instances() if i.spec.name == "mapreduce.map"
        )
        platform.evict(mapper)
        # Next request cold-boots a new mapper and completes end to end.
        platform.submit([Request(arrival=5.0, definition=definition)])
        outcomes = platform.run()
        assert len(outcomes) == 2
        assert outcomes[-1].cold_boots >= 1

    def test_reclaiming_producer_before_handoff_consumed_keeps_data(self):
        """Desiccant on a frozen producer whose handoff is still pending
        must keep the intermediate data alive (it is persistently rooted
        until the consumer picks it up)."""
        spec = get_definition("mapreduce").stages[0]
        producer = FunctionInstance(spec)
        producer.boot()
        result = producer.invoke(0.0)
        assert result.handoff_oid is not None
        producer.freeze(0.0)
        reclaim_instance(producer, ProfileStore())
        assert result.handoff_oid in producer.runtime.graph.objects
        assert producer.runtime.live_bytes() > 10 * MIB
        producer.destroy()


class TestDeadInstanceHygiene:
    def test_dead_instance_rejects_everything(self):
        inst = frozen_instance()
        inst.destroy()
        with pytest.raises(RuntimeError):
            inst.invoke()
        with pytest.raises(RuntimeError):
            inst.reclaim()

    def test_profiles_survive_unknown_instances(self):
        store = ProfileStore()
        live, cpu = store.estimate(99999, "nonexistent-function")
        assert live > 0 and cpu > 0

    def test_double_eviction_is_harmless(self):
        platform = FaasPlatform()
        platform.submit([Request(arrival=0.0, definition=get_definition("clock"))])
        platform.run()
        instance = platform.all_instances()[0]
        platform.evict(instance)
        instance.destroy()  # second teardown: no-op
        assert instance.state is InstanceState.DEAD
