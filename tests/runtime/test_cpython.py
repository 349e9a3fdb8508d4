"""Unit tests for the CPython arena simulator (§7)."""

import pytest

from repro.mem.layout import KIB, MIB, PAGE_SIZE
from repro.runtime.base import OutOfMemory
from repro.runtime.cpython import CPythonConfig, CPythonRuntime


def make_runtime(budget=256 * MIB, **kwargs) -> CPythonRuntime:
    rt = CPythonRuntime("py", CPythonConfig(memory_budget=budget, **kwargs))
    rt.boot()
    return rt


def test_small_objects_pack_into_arenas():
    rt = make_runtime()
    rt.begin_invocation()
    for _ in range(20):
        rt.alloc(8 * KIB)
    assert len(rt._arenas.chunks) == 1  # 160 KiB fits one 256 KiB arena


def test_arena_grows_on_demand():
    rt = make_runtime()
    rt.begin_invocation()
    for _ in range(80):
        rt.alloc(8 * KIB)
    assert len(rt._arenas.chunks) >= 2


def test_gc_frees_only_empty_arenas():
    """CPython's central quirk: an arena survives while any object in it
    lives, stranding the rest of its pages."""
    rt = make_runtime()
    rt.begin_invocation()
    keeper = rt.alloc(8 * KIB, scope="persistent")
    for _ in range(60):
        rt.alloc(8 * KIB, scope="ephemeral")
    rt.end_invocation()
    arenas_before = len(rt._arenas.chunks)
    rt.collect()
    # The arena holding the keeper cannot be freed.
    assert 1 <= len(rt._arenas.chunks) < arenas_before + 1
    assert keeper in rt.graph.objects


def test_gc_triggered_by_allocation_threshold():
    rt = make_runtime()
    rt.begin_invocation()
    threshold = rt.config.gc_threshold_bytes
    for _ in range(threshold // (32 * KIB) + 4):
        rt.alloc(32 * KIB, scope="ephemeral")
    assert rt.gc_count >= 1


def test_reclaim_releases_free_pages_inside_live_arenas():
    rt = make_runtime()
    rt.begin_invocation()
    keeper = rt.alloc(8 * KIB, scope="persistent")
    for _ in range(28):
        rt.alloc(8 * KIB, scope="ephemeral")
    rt.end_invocation()
    rt.collect()
    uss_after_gc = rt.uss()
    outcome = rt.reclaim()
    assert outcome.released_bytes > 0
    assert outcome.uss_after < uss_after_gc
    assert keeper in rt.graph.objects


def test_large_allocations_bypass_arenas():
    rt = make_runtime()
    rt.begin_invocation()
    oid = rt.alloc(1 * MIB)
    assert oid in rt._large.objects
    assert rt._arenas.used == 0


def test_dead_large_allocation_unmapped_at_gc():
    rt = make_runtime()
    rt.begin_invocation()
    rt.alloc(1 * MIB, scope="ephemeral")
    rt.collect()
    assert not rt._large.objects


def test_oom_on_unbounded_live_data():
    rt = make_runtime(budget=16 * MIB)
    rt.begin_invocation()
    with pytest.raises(OutOfMemory):
        for _ in range(300):
            rt.alloc(64 * KIB)


def test_heap_stats_track_arena_usage():
    rt = make_runtime()
    rt.begin_invocation()
    rt.alloc(32 * KIB)
    stats = rt.heap_stats()
    assert stats.used >= 32 * KIB
    assert stats.committed >= stats.used
