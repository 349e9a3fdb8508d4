"""Integration tests for the OpenWhisk-like platform."""

import pytest

from repro.core import Desiccant, EagerGcManager, VanillaManager
from repro.faas.instance import InstanceState
from repro.faas.platform import FaasPlatform, PlatformConfig, Request
from repro.faas.lambda_platform import LambdaPlatform
from repro.mem.layout import GIB, MIB
from repro.workloads.registry import get_definition


def make_platform(**config_overrides) -> FaasPlatform:
    config = PlatformConfig(**config_overrides)
    return FaasPlatform(config=config)


def submit_and_run(platform, name, count, spacing=0.5, start=0.0):
    definition = get_definition(name)
    platform.submit(
        [
            Request(arrival=start + i * spacing, definition=definition)
            for i in range(count)
        ]
    )
    return platform.run()


class TestBasicRouting:
    def test_first_request_cold_boots(self):
        platform = make_platform()
        outcomes = submit_and_run(platform, "clock", 1)
        assert len(outcomes) == 1
        assert outcomes[0].cold_boots == 1
        assert platform.cold_boots == 1

    def test_repeat_requests_reuse_frozen_instance(self):
        platform = make_platform()
        outcomes = submit_and_run(platform, "clock", 5)
        assert platform.cold_boots == 1
        assert platform.warm_starts == 4
        assert all(o.cold_boots == 0 for o in outcomes[1:])

    def test_cold_boot_latency_dominates(self):
        platform = make_platform()
        outcomes = submit_and_run(platform, "file-hash", 3)
        assert outcomes[0].latency > outcomes[1].latency

    def test_instance_frozen_after_completion(self):
        platform = make_platform()
        submit_and_run(platform, "clock", 1)
        instances = platform.all_instances()
        assert len(instances) == 1
        assert instances[0].state is InstanceState.FROZEN

    def test_chain_runs_every_stage(self):
        platform = make_platform()
        outcomes = submit_and_run(platform, "mapreduce", 1)
        assert outcomes[0].cold_boots == 2  # one per stage
        assert len(platform.all_instances()) == 2

    def test_chain_handoff_freed_after_consumption(self):
        platform = make_platform()
        submit_and_run(platform, "mapreduce", 2)
        mapper = next(
            i for i in platform.all_instances() if i.spec.name == "mapreduce.map"
        )
        # After the reducer consumed, only the mapper's cached state remains.
        assert mapper.runtime.live_bytes() < 3 * MIB

    def test_concurrent_requests_spawn_multiple_instances(self):
        platform = make_platform()
        definition = get_definition("file-hash")
        platform.submit(
            [Request(arrival=0.0, definition=definition) for _ in range(4)]
        )
        platform.run()
        assert platform.cold_boots == 4


class TestMemoryPressure:
    def test_eviction_under_tight_cache(self):
        # Launching needs a full 256 MiB budget free; with a 320 MiB cache,
        # ~64 MiB of frozen instances forces evictions.
        platform = make_platform(capacity_bytes=320 * MIB)
        for name in ("sort", "file-hash", "image-resize", "fft", "matrix"):
            submit_and_run(platform, name, 1, start=platform.now + 1.0)
        assert platform.evictions > 0

    def test_eviction_prefers_lru(self):
        platform = make_platform(capacity_bytes=2 * GIB)
        submit_and_run(platform, "sort", 1)
        first = platform.all_instances()[0]
        platform.now += 100.0
        submit_and_run(platform, "fft", 1, start=platform.now)
        victim = platform._eviction_victim()
        assert victim is first

    def test_frozen_bytes_tracks_uss(self):
        platform = make_platform()
        submit_and_run(platform, "sort", 1)
        assert platform.frozen_bytes() == sum(
            i.uss() for i in platform.frozen_instances()
        )

    def test_queueing_under_cpu_saturation(self):
        platform = make_platform(cpus=0.28)  # two concurrent slots
        definition = get_definition("file-hash")
        platform.submit(
            [Request(arrival=0.0, definition=definition) for _ in range(6)]
        )
        outcomes = platform.run()
        assert platform.max_concurrency == 2
        assert any(o.queue_seconds > 0 for o in outcomes)


class TestManagers:
    def test_eager_manager_charges_gc_cpu(self):
        platform = FaasPlatform(manager=EagerGcManager())
        submit_and_run(platform, "sort", 3)
        assert platform.cpu.busy.get("eager_gc", 0) > 0

    def test_desiccant_activates_under_pressure(self):
        from repro.core import ActivationController

        desiccant = Desiccant(activation=ActivationController(floor=0.1, ceiling=0.1))
        desiccant.config.freeze_timeout_seconds = 0.1
        platform = FaasPlatform(
            config=PlatformConfig(capacity_bytes=512 * MIB),
            manager=desiccant,
        )
        for name in ("sort", "file-hash", "fft"):
            submit_and_run(platform, name, 2, spacing=2.0, start=platform.now + 5.0)
        assert desiccant.reclaims > 0
        assert platform.cpu.busy.get("reclaim", 0) > 0

    def test_vanilla_manager_never_reclaims(self):
        platform = FaasPlatform(manager=VanillaManager())
        submit_and_run(platform, "sort", 3)
        assert platform.cpu.busy.get("reclaim", 0) == 0

    def test_desiccant_profiles_dropped_on_eviction(self):
        desiccant = Desiccant()
        platform = FaasPlatform(manager=desiccant)
        submit_and_run(platform, "sort", 1)
        instance = platform.all_instances()[0]
        desiccant.profiles.record(
            instance.id, instance.spec.name, __import__(
                "repro.core.profiles", fromlist=["ReclaimProfile"]
            ).ReclaimProfile(1, 0.01),
        )
        platform.evict(instance)
        assert not desiccant.profiles.has_history(instance.id)
        assert desiccant.activation.threshold == desiccant.activation.floor


class TestLambdaPlatform:
    def test_lambda_never_shares_libraries(self):
        platform = LambdaPlatform()
        submit_and_run(platform, "clock", 1)
        instance = platform.all_instances()[0]
        from repro.mem.accounting import measure

        report = measure(instance.runtime.space)
        assert report.shared_clean == 0  # all library pages private

    def test_openwhisk_shares_libraries(self):
        platform = make_platform()
        submit_and_run(platform, "clock", 1)
        instance = platform.all_instances()[0]
        from repro.mem.accounting import measure

        report = measure(instance.runtime.space)
        assert report.shared_clean > 0


def test_reset_metrics_preserves_instances():
    platform = make_platform()
    submit_and_run(platform, "clock", 3)
    platform.reset_metrics()
    assert platform.cold_boots == 0
    assert platform.outcomes == []
    assert len(platform.all_instances()) == 1
