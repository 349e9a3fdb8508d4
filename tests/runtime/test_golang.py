"""Unit tests for the Go runtime simulator (§7)."""

import pytest

from repro.mem.layout import KIB, MIB, PAGE_SIZE
from repro.runtime.base import OutOfMemory
from repro.runtime.golang import GoConfig, GoRuntime
from repro.runtime.golang.runtime import ARENA_SIZE


def make_runtime(budget=256 * MIB, **kwargs) -> GoRuntime:
    rt = GoRuntime("go", GoConfig(memory_budget=budget, **kwargs))
    rt.boot()
    return rt


class TestPacer:
    def test_gc_triggered_by_gogc_pacing(self):
        rt = make_runtime()
        rt.begin_invocation()
        trigger = rt._next_gc
        for _ in range(trigger // (64 * KIB) + 4):
            rt.alloc(64 * KIB, scope="ephemeral")
        assert rt.gc_count >= 1

    def test_trigger_follows_live_size(self):
        rt = make_runtime(gogc=100)
        rt.begin_invocation()
        rt.alloc(8 * MIB, scope="persistent")  # large -> own mapping
        for _ in range(64):
            rt.alloc(128 * KIB, scope="persistent")
        rt.collect()
        live = rt.live_bytes()
        assert rt._next_gc == pytest.approx(2 * live, rel=0.01)

    def test_gogc_knob_scales_trigger(self):
        lazy = make_runtime(gogc=400)
        eager = make_runtime(gogc=50)
        for rt in (lazy, eager):
            rt.begin_invocation()
            rt.alloc(6 * MIB, scope="persistent")
            rt.collect()
        assert lazy._next_gc > eager._next_gc


class TestSweepSemantics:
    def test_swept_arenas_stay_resident(self):
        """Go's defining quirk here: sweep recycles arenas without
        returning their pages to the OS."""
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(120):
            rt.alloc(64 * KIB, scope="ephemeral")
        rt.end_invocation()
        uss_grown = rt.uss()
        rt.collect()
        assert rt._arenas.used < 1 * MIB  # swept...
        assert rt.uss() > uss_grown - 1 * MIB  # ...but still resident

    def test_emptied_arena_is_reused(self):
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(60):
            rt.alloc(64 * KIB, scope="ephemeral")
        rt.collect()
        arenas_before = rt._arenas.total_chunks_allocated
        for _ in range(30):
            rt.alloc(64 * KIB, scope="ephemeral")
        assert rt._arenas.total_chunks_allocated == arenas_before

    def test_scavenger_respects_retention(self):
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(120):
            rt.alloc(64 * KIB, scope="ephemeral")
        rt.collect()
        assert rt.scavenge(idle_seconds=10.0) == 0
        released = rt.scavenge(idle_seconds=600.0)
        assert released > 0


class TestReclaim:
    def test_reclaim_releases_what_the_scavenger_would_not(self):
        rt = make_runtime()
        rt.begin_invocation()
        keep = rt.alloc(256 * KIB, scope="persistent")
        for _ in range(120):
            rt.alloc(64 * KIB, scope="ephemeral")
        rt.end_invocation()
        rt.collect()
        uss_after_gc = rt.uss()
        outcome = rt.reclaim()
        assert outcome.released_bytes > 2 * MIB
        assert outcome.uss_after < uss_after_gc
        assert keep in rt.graph.objects

    def test_reclaim_preserves_live_bytes(self):
        rt = make_runtime()
        rt.begin_invocation()
        rt.alloc(1 * MIB, scope="persistent")
        rt.end_invocation()
        before = rt.live_bytes()
        rt.reclaim()
        assert rt.live_bytes() == before


def test_large_objects_bypass_arenas():
    rt = make_runtime()
    rt.begin_invocation()
    oid = rt.alloc(2 * MIB)
    assert oid in rt._large.objects
    rt.collect()  # frame-rooted: survives
    assert oid in rt._large.objects


def test_oom_when_live_exceeds_budget():
    rt = make_runtime(budget=16 * MIB)
    rt.begin_invocation()
    with pytest.raises(OutOfMemory):
        for _ in range(400):
            rt.alloc(64 * KIB)


def test_arena_payload_excludes_metadata_page():
    rt = make_runtime()
    rt.begin_invocation()
    rt.alloc(32 * KIB)
    chunk = rt._arenas.chunks[0]
    assert chunk.payload == ARENA_SIZE - PAGE_SIZE


def test_runtime_for_builds_go():
    from repro.faas.instance import runtime_for
    from repro.workloads.model import FunctionSpec

    spec = FunctionSpec(
        name="g",
        language="go",
        description="x",
        base_exec_seconds=0.01,
        ephemeral_bytes=1 * MIB,
        frame_bytes=0,
    )
    rt = runtime_for(spec, 256 * MIB)
    assert isinstance(rt, GoRuntime)
