"""Unit tests for the HotSpot serial-GC simulator."""

import pytest

from repro.mem.layout import KIB, MIB
from repro.runtime.base import OutOfMemory
from repro.runtime.hotspot import HotSpotConfig, HotSpotRuntime
from repro.runtime.hotspot.policy import ResizePolicy


def make_runtime(budget=256 * MIB, **kwargs) -> HotSpotRuntime:
    rt = HotSpotRuntime("jvm", HotSpotConfig(memory_budget=budget, **kwargs))
    rt.boot()
    return rt


def space_of(rt: HotSpotRuntime, oid: int):
    """The one space whose objects hold ``oid``."""
    (space,) = [space for space in rt._spaces() if oid in space.objects]
    return space


class TestBootAndLayout:
    def test_boot_maps_heap_and_libraries(self):
        rt = make_runtime()
        names = [m.name for m in rt.space.mappings()]
        assert "[java heap]" in " ".join(names)
        assert any("libjvm" in n for n in names)

    def test_double_boot_rejected(self):
        rt = make_runtime()
        with pytest.raises(RuntimeError):
            rt.boot()

    def test_alloc_before_boot_rejected(self):
        rt = HotSpotRuntime("jvm")
        with pytest.raises(RuntimeError):
            rt.alloc(100)

    def test_generations_partition_the_reserve(self):
        rt = make_runtime()
        spaces = rt._spaces()
        reserve = rt._reserved_bytes()
        assert reserve == pytest.approx(rt.config.max_heap, abs=16 * KIB)
        # NewRatio=2: the old generation holds ~2/3 of the reserve.
        assert spaces[0].reserved == pytest.approx(2 * reserve / 3, rel=0.01)

    def test_initial_committed_is_small(self):
        rt = make_runtime()
        assert rt.heap_stats().committed < 64 * MIB


class TestAllocationAndYoungGC:
    def test_allocation_lands_in_eden(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(8 * KIB)
        assert space_of(rt, oid) is rt._eden

    def test_eden_overflow_triggers_scavenge(self):
        rt = make_runtime()
        rt.begin_invocation()
        eden = rt._eden.committed
        n = eden // (64 * KIB) + 4
        for _ in range(n):
            rt.alloc(64 * KIB, scope="ephemeral")
        assert rt.young_gc_count >= 1

    def test_scavenge_drops_ephemeral_garbage(self):
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(50):
            rt.alloc(64 * KIB, scope="ephemeral")
        rt.collect(full=False)
        assert rt.graph.total_bytes() < 64 * KIB * 50

    def test_survivors_copy_to_survivor_space(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(32 * KIB)  # frame-rooted: survives
        rt.collect(full=False)
        assert space_of(rt, oid) is rt._from
        assert rt.graph.objects[oid].age == 1

    def test_aged_objects_promote_to_old(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(32 * KIB)
        for _ in range(rt.config.tenure_threshold):
            rt.collect(full=False)
        assert space_of(rt, oid) is rt._old

    def test_huge_object_goes_straight_to_old(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(rt._eden.reserved + MIB)
        assert space_of(rt, oid) is rt._old

    def test_oom_when_live_exceeds_heap(self):
        rt = make_runtime(budget=32 * MIB)
        rt.begin_invocation()
        with pytest.raises(OutOfMemory):
            for _ in range(100):
                rt.alloc(1 * MIB)  # all frame-rooted: nothing collectible


class TestFullGCAndResize:
    def test_full_gc_compacts_into_old(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(64 * KIB)
        rt.collect(full=True)
        assert space_of(rt, oid) is rt._old
        assert rt._eden.top == 0
        assert rt._from.top == 0
        # Compaction packs live data at the bottom: used == live.
        assert rt._old.top == rt.graph.live_bytes()

    def test_full_gc_shrinks_oversized_heap(self):
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(400):
            rt.alloc(256 * KIB, scope="ephemeral")
        rt.end_invocation()
        grown = rt.heap_stats().committed
        rt.full_gc()
        assert rt.heap_stats().committed < grown

    def test_free_ratio_respected_after_full_gc(self):
        policy = ResizePolicy()
        rt = make_runtime()
        rt.begin_invocation()
        rt.alloc(20 * MIB, scope="persistent")
        rt.end_invocation()
        rt.full_gc()
        old = rt._old
        free_ratio = (old.committed - old.top) / old.committed
        assert (
            policy.min_heap_free_ratio - 0.05
            <= free_ratio
            <= policy.max_heap_free_ratio + 0.05
        )

    def test_shrink_releases_beyond_committed_but_not_within(self):
        """The §3.2.1 key point: GC resizing controls committed size, but
        free dirty pages below the committed boundary stay resident."""
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(200):
            rt.alloc(256 * KIB, scope="ephemeral")
        rt.end_invocation()
        uss_grown = rt.uss()
        rt.full_gc()
        uss_after_gc = rt.uss()
        assert uss_after_gc < uss_grown  # shrink released something
        # but far from ideal: committed-but-free dirty pages remain
        assert uss_after_gc > rt.ideal_uss() * 1.2

    def test_aggressive_full_gc_clears_weak_roots(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(64 * KIB, scope="weak")
        rt.full_gc(aggressive=False)
        assert oid in rt.graph.objects
        rt.full_gc(aggressive=True)
        assert oid not in rt.graph.objects


class TestReclaim:
    def test_reclaim_releases_free_committed_pages(self):
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(200):
            rt.alloc(256 * KIB, scope="ephemeral")
        state = rt.alloc(2 * MIB, scope="persistent")
        rt.end_invocation()
        rt.full_gc()
        uss_eager = rt.uss()
        outcome = rt.reclaim()
        assert outcome.uss_after < uss_eager
        assert outcome.released_bytes > 0
        assert state in rt.graph.objects

    def test_reclaim_preserves_live_data(self):
        rt = make_runtime()
        rt.begin_invocation()
        keep = rt.alloc(5 * MIB, scope="persistent")
        rt.end_invocation()
        before = rt.live_bytes()
        outcome = rt.reclaim()
        assert rt.live_bytes() == before
        assert outcome.live_bytes == before
        assert keep in rt.graph.objects

    def test_reclaim_is_nearly_idempotent(self):
        rt = make_runtime()
        rt.begin_invocation()
        rt.alloc(3 * MIB, scope="persistent")
        rt.end_invocation()
        first = rt.reclaim()
        second = rt.reclaim()
        assert second.uss_after <= first.uss_after + 64 * KIB
        assert second.released_bytes <= 64 * KIB

    def test_post_reclaim_execution_refaults(self):
        rt = make_runtime()
        for _ in range(3):
            rt.begin_invocation()
            for _ in range(50):
                rt.alloc(64 * KIB, scope="ephemeral")
            rt.end_invocation()
        rt.reclaim()
        rt.begin_invocation()
        for _ in range(50):
            rt.alloc(64 * KIB, scope="ephemeral")
        rt.end_invocation()
        assert rt.invocation_fault_seconds > 0

    def test_reclaim_cpu_time_scales_with_live_bytes(self):
        small = make_runtime()
        small.begin_invocation()
        small.alloc(1 * MIB, scope="persistent")
        small.end_invocation()
        big = make_runtime()
        big.begin_invocation()
        for _ in range(40):
            big.alloc(1 * MIB, scope="persistent")
        big.end_invocation()
        assert big.reclaim().cpu_seconds > small.reclaim().cpu_seconds


class TestMetrics:
    def test_heap_resident_tracks_touched_pages(self):
        rt = make_runtime()
        rt.begin_invocation()
        rt.alloc(4 * MIB)
        assert rt.heap_resident_bytes() >= 4 * MIB

    def test_uss_includes_solo_library_pages(self):
        rt = make_runtime()
        assert rt.uss() > rt.config.native_boot_bytes

    def test_destroy_releases_all_memory(self):
        rt = make_runtime()
        rt.begin_invocation()
        rt.alloc(4 * MIB)
        phys = rt.space.physical
        rt.destroy()
        assert phys.used_bytes == 0
