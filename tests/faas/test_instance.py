"""Unit tests for instance lifecycle and freeze semantics."""

import pytest

from repro.faas.instance import FunctionInstance, InstanceState, runtime_for
from repro.mem.layout import MIB
from repro.runtime.cpython import CPythonRuntime
from repro.runtime.hotspot import HotSpotRuntime
from repro.runtime.v8 import V8Runtime
from repro.workloads.registry import get_definition, get_stage


@pytest.fixture
def java_spec():
    return get_definition("file-hash").stages[0]


@pytest.fixture
def instance(java_spec):
    inst = FunctionInstance(java_spec)
    inst.boot()
    return inst


class TestRuntimeFor:
    def test_java_gets_hotspot(self, java_spec):
        assert isinstance(runtime_for(java_spec, 256 * MIB), HotSpotRuntime)

    def test_javascript_gets_v8(self):
        spec = get_definition("fft").stages[0]
        assert isinstance(runtime_for(spec, 256 * MIB), V8Runtime)

    def test_unknown_language_rejected(self, java_spec):
        from dataclasses import replace

        bad = replace(java_spec, language="cobol")
        with pytest.raises(ValueError):
            runtime_for(bad, 256 * MIB)


class TestLifecycle:
    def test_invoke_then_freeze_then_thaw(self, instance):
        instance.invoke(now=1.0)
        assert instance.state is InstanceState.IDLE
        instance.freeze(now=1.5)
        assert instance.state is InstanceState.FROZEN
        assert instance.frozen_for(5.5) == pytest.approx(4.0)
        instance.thaw(now=5.5)
        assert instance.state is InstanceState.IDLE
        assert instance.frozen_for(6.0) == 0.0

    def test_invoke_while_frozen_rejected(self, instance):
        instance.invoke()
        instance.freeze()
        with pytest.raises(RuntimeError, match="frozen"):
            instance.invoke()

    def test_double_freeze_rejected(self, instance):
        instance.invoke()
        instance.freeze()
        with pytest.raises(RuntimeError):
            instance.freeze()

    def test_thaw_of_running_instance_rejected(self, instance):
        with pytest.raises(RuntimeError):
            instance.thaw()

    def test_destroy_is_idempotent_and_frees_memory(self, instance):
        phys = instance.runtime.space.physical
        instance.invoke()
        instance.destroy()
        instance.destroy()
        assert instance.state is InstanceState.DEAD
        assert phys.used_bytes == 0

    def test_invoke_after_destroy_rejected(self, instance):
        instance.destroy()
        with pytest.raises(RuntimeError, match="dead"):
            instance.invoke()


class TestReclaimGating:
    def test_reclaim_requires_frozen(self, instance):
        instance.invoke()
        with pytest.raises(RuntimeError, match="frozen"):
            instance.reclaim()

    def test_reclaim_reduces_memory_and_flags(self, instance):
        for _ in range(5):
            instance.invoke()
            instance.freeze()
            instance.thaw()
        instance.invoke()
        instance.freeze()
        before = instance.uss()
        outcome = instance.reclaim()
        assert outcome.uss_after < before
        assert instance.reclaim_count == 1
        instance.thaw()
        assert instance.reclaimed_this_freeze is False

    def test_frozen_state_survives_reclaim(self, instance):
        instance.invoke()
        instance.freeze()
        instance.reclaim()
        assert instance.state is InstanceState.FROZEN


def test_invocation_counts_accumulate(instance):
    for i in range(3):
        instance.invoke(now=float(i))
    assert instance.invocation_count == 3
    assert instance.last_used_at == 2.0


def test_uss_cache_follows_a_remote_sharers_exit():
    """The runtime's USS cache must notice a change it did not cause: when
    the last co-sharer of a library page exits, that page turns solo and
    this instance's USS grows without any operation on its own space."""
    from repro.faas.libraries import SharedLibraryPool
    from repro.mem.accounting import measure
    from repro.mem.physical import PhysicalMemory

    physical = PhysicalMemory()
    pool = SharedLibraryPool(
        physical, runtime_classes=(HotSpotRuntime,), warm_host=False
    )
    spec = get_definition("file-hash").stages[0]
    keeper, leaver = (
        FunctionInstance(spec, physical=physical, shared_files=pool.files)
        for _ in range(2)
    )
    keeper.boot()
    leaver.boot()
    shared = keeper.uss()  # cached while the pages are shared
    leaver.destroy()
    assert keeper.uss() == measure(keeper.runtime.space).uss > shared
    keeper.destroy()
