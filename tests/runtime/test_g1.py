"""Unit tests for the G1 region-based collector (§7)."""

import pytest

from repro.mem.layout import KIB, MIB
from repro.runtime.base import OutOfMemory
from repro.runtime.g1 import G1Config, G1Runtime
from repro.runtime.g1.regions import (
    REGION_SIZE,
    Region,
    RegionKind,
    RegionManager,
)


def make_runtime(budget=256 * MIB, **kwargs) -> G1Runtime:
    rt = G1Runtime("g1", G1Config(memory_budget=budget, **kwargs))
    rt.boot()
    return rt


def region_of(rt: G1Runtime, oid: int) -> Region:
    """The one region whose objects hold ``oid``."""
    (region,) = [
        region
        for region in rt._regions.regions
        if any(held == oid for held, _offset in region.objects)
    ]
    return region


class TestRegionManager:
    def test_needs_enough_regions(self):
        with pytest.raises(ValueError):
            RegionManager(2)

    def test_take_free_claims_lowest_index(self):
        mgr = RegionManager(8)
        region = mgr.take_free(RegionKind.EDEN)
        assert region.index == 0
        assert region.kind is RegionKind.EDEN
        assert mgr.free_count() == 7

    def test_allocate_rolls_to_next_region_when_full(self):
        mgr = RegionManager(8)
        first, _ = mgr.allocate(RegionKind.EDEN, 1, REGION_SIZE - 4096)
        second, _ = mgr.allocate(RegionKind.EDEN, 2, 8192)
        assert first is not second

    def test_allocate_returns_none_when_exhausted(self):
        mgr = RegionManager(4)
        for oid in range(4):
            assert mgr.allocate(RegionKind.OLD, oid, REGION_SIZE - 4096)
        assert mgr.allocate(RegionKind.OLD, 99, REGION_SIZE - 4096) is None

    def test_humongous_takes_contiguous_run(self):
        mgr = RegionManager(8)
        span = mgr.allocate_humongous(1, int(2.5 * REGION_SIZE))
        assert span is not None
        assert len(span) == 3
        indices = [r.index for r in span]
        assert indices == list(range(indices[0], indices[0] + 3))
        assert all(r.kind is RegionKind.HUMONGOUS for r in span)

    def test_humongous_fails_without_contiguous_run(self):
        mgr = RegionManager(6)
        # Occupy every other region to fragment the free list.
        for index in (0, 2, 4):
            mgr.regions[index].kind = RegionKind.OLD
        assert mgr.allocate_humongous(1, 2 * REGION_SIZE) is None

    def test_garbage_bytes_ranking_quantity(self):
        region = Region(0, kind=RegionKind.OLD)
        region.bump(1, 600 * KIB)
        region.bump(2, 200 * KIB)
        sizes = {1: 600 * KIB}  # object 2 died
        assert region.garbage_bytes(sizes) == 200 * KIB
        assert region.live_bytes(sizes) == 600 * KIB


class TestCollections:
    def test_young_gc_frees_eden_regions(self):
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(200):
            rt.alloc(48 * KIB, scope="ephemeral")
        assert rt.young_gc_count >= 1
        # After collections, eden stays bounded around the young target.
        assert len(rt._regions.by_kind(RegionKind.EDEN)) <= rt._young_target() + 1

    def test_survivors_age_then_promote(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(64 * KIB)
        for _ in range(rt.config.tenure_threshold + 1):
            rt.collect(full=False)
        assert region_of(rt, oid).kind is RegionKind.OLD

    def test_mixed_gc_after_marking(self):
        """Old garbage past the IHOP triggers marking, then a mixed GC
        evacuates the most-garbage old regions."""
        rt = make_runtime(budget=48 * MIB, ihop=0.1)
        rt.begin_invocation()
        handles = [rt.alloc(96 * KIB, scope="persistent") for _ in range(120)]
        for _ in range(rt.config.tenure_threshold + 1):
            rt.collect(full=False)  # promote everything to old
        for oid in handles[::2]:
            rt.free_persistent(oid)  # riddle old regions with garbage
        rt.collect(full=False)  # marking scheduled
        rt.collect(full=False)  # mixed collection
        assert rt.mixed_gc_count >= 1

    def test_evacuated_regions_keep_dirty_pages(self):
        """The frozen-garbage mechanic: FREE regions stay resident."""
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(200):
            rt.alloc(48 * KIB, scope="ephemeral")
        rt.end_invocation()
        uss = rt.uss()
        rt.collect(full=True)
        assert rt.uss() > uss - 2 * MIB  # compaction freed almost nothing

    def test_dead_humongous_swept_at_gc(self):
        rt = make_runtime()
        rt.begin_invocation()
        rt.alloc(2 * MIB, scope="ephemeral")
        spans = rt._regions.by_kind(RegionKind.HUMONGOUS)
        assert len(spans) >= 2
        rt.collect(full=False)
        assert rt._regions.by_kind(RegionKind.HUMONGOUS) == []

    def test_live_humongous_survives(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(2 * MIB, scope="persistent")
        rt.collect(full=True)
        assert oid in rt.graph.objects
        assert rt._regions.by_kind(RegionKind.HUMONGOUS)

    def test_oom_when_regions_exhausted_by_live_data(self):
        rt = make_runtime(budget=24 * MIB)
        rt.begin_invocation()
        with pytest.raises(OutOfMemory):
            for _ in range(600):
                rt.alloc(96 * KIB)  # frame-rooted: nothing collectible


class TestReclaim:
    def test_reclaim_releases_free_regions(self):
        rt = make_runtime()
        rt.begin_invocation()
        keep = rt.alloc(1 * MIB, scope="persistent")
        for _ in range(300):
            rt.alloc(48 * KIB, scope="ephemeral")
        rt.end_invocation()
        outcome = rt.reclaim()
        assert outcome.released_bytes > 4 * MIB
        assert outcome.uss_after < outcome.uss_before
        assert keep in rt.graph.objects
        # Close to ideal: live + native (libraries are the §4.6 job).
        heap_resident = rt.heap_resident_bytes()
        assert heap_resident <= rt.live_bytes() + 3 * REGION_SIZE

    def test_reclaim_preserves_live_bytes(self):
        rt = make_runtime()
        rt.begin_invocation()
        rt.alloc(3 * MIB, scope="persistent")
        rt.end_invocation()
        before = rt.live_bytes()
        rt.reclaim()
        assert rt.live_bytes() == before

    def test_post_reclaim_execution_works(self):
        rt = make_runtime()
        for _ in range(3):
            rt.begin_invocation()
            for _ in range(50):
                rt.alloc(48 * KIB, scope="ephemeral")
            rt.end_invocation()
        rt.reclaim()
        rt.begin_invocation()
        rt.alloc(48 * KIB)
        rt.end_invocation()


def test_g1_vs_serial_same_frozen_garbage_story():
    """§7: G1 is as frozen-garbage-prone as the serial collector, and
    Desiccant reclaims both to a similar floor."""
    from repro.runtime.hotspot import HotSpotRuntime

    def exercise(rt):
        rt.boot()
        for _ in range(20):
            rt.begin_invocation()
            for _ in range(100):
                rt.alloc(48 * KIB, scope="ephemeral")
            rt.end_invocation()
        return rt

    g1 = exercise(G1Runtime("g1"))
    serial = exercise(HotSpotRuntime("serial"))
    assert g1.uss() > g1.ideal_uss() * 1.3
    g1_out = g1.reclaim()
    serial_out = serial.reclaim()
    assert g1_out.uss_after < g1_out.uss_before
    # Both land within a few MiB of each other after reclamation.
    assert abs(g1_out.uss_after - serial_out.uss_after) < 8 * MIB
