"""Unit tests for the V8 simulator."""

import pytest

from repro.mem.layout import CHUNK_SIZE, KIB, MIB, PAGE_SIZE
from repro.mem.accounting import measure
from repro.runtime.base import OutOfMemory
from repro.runtime.v8 import V8Config, V8Runtime
from repro.runtime.v8.chunks import CHUNK_PAYLOAD


def make_runtime(budget=256 * MIB, **kwargs) -> V8Runtime:
    rt = V8Runtime("node", V8Config(memory_budget=budget, **kwargs))
    rt.boot()
    return rt


class TestLayout:
    def test_semispaces_start_small(self):
        rt = make_runtime()
        assert rt._from.committed <= 2 * MIB
        assert rt._from.committed == rt._to.committed

    def test_semi_max_scales_with_heap(self):
        small = make_runtime(budget=256 * MIB)
        large = make_runtime(budget=1024 * MIB)
        assert large._from.reserved == pytest.approx(
            4 * small._from.reserved, rel=0.01
        )

    def test_young_cap_is_32mb_for_256mb_heap(self):
        """The paper: fft's young generation tops out at 32 MiB (two
        16 MiB semispaces) under the 256 MiB default."""
        rt = make_runtime(budget=256 * MIB)
        young_cap = 2 * rt._from.reserved
        assert 24 * MIB <= young_cap <= 36 * MIB


class TestAllocationAndScavenge:
    def test_small_allocation_lands_in_from_space(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(8 * KIB)
        assert oid in rt._from.objects

    def test_large_object_gets_own_mapping(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(1 * MIB)
        assert oid in rt._large.objects

    def test_scavenge_swaps_semispaces(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(8 * KIB)
        name_before = rt._from.name
        rt.collect(full=False)
        assert rt._from.name != name_before
        assert oid in rt._from.objects  # survivor lives in the new from

    def test_twice_survived_objects_promote_to_chunks(self):
        rt = make_runtime()
        rt.begin_invocation()
        oid = rt.alloc(8 * KIB)
        rt.collect(full=False)
        rt.collect(full=False)
        assert oid not in rt._from.objects
        assert any(
            oid in (o for o, _ in chunk.objects) for chunk in rt._old.chunks
        )

    def test_chunk_metadata_page_touched_on_creation(self):
        rt = make_runtime()
        rt.begin_invocation()
        rt.alloc(8 * KIB)
        rt.collect(full=False)
        rt.collect(full=False)
        chunk = rt._old.chunks[0]
        assert 0 in chunk.mapping.pages  # metadata page resident

    def test_oom_when_live_exceeds_budget(self):
        rt = make_runtime(budget=16 * MIB)
        rt.begin_invocation()
        with pytest.raises(OutOfMemory):
            for _ in range(200):
                rt.alloc(1 * MIB)


class TestYoungPolicy:
    def test_high_survival_doubles_young_generation(self):
        """The fft pattern: live data accumulating across scavenges doubles
        the semispaces repeatedly."""
        rt = make_runtime()
        initial = rt._from.committed
        rt.begin_invocation()
        for _ in range(600):
            rt.alloc(64 * KIB)  # frame-rooted: survives scavenges
        assert rt._from.committed > initial

    def test_doubling_caps_at_semi_max(self):
        rt = make_runtime()
        rt.begin_invocation()
        handles = []
        # Allocate ~2x the cap in live data to push expansion to the limit.
        for _ in range(2 * rt._from.reserved // (64 * KIB)):
            try:
                handles.append(rt.alloc(64 * KIB))
            except OutOfMemory:
                break
        assert rt._from.committed <= rt._from.reserved

    def test_no_shrink_when_allocation_rate_high(self):
        """§3.2.2: eager global.gc right after heavy allocation does not
        shrink the young generation."""
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(600):
            rt.alloc(64 * KIB)
        rt.end_invocation()
        grown = rt._from.committed
        assert grown > 2 * MIB
        rt.full_gc()  # allocation counter is hot: no shrink
        assert rt._from.committed == grown

    def test_shrink_when_idle(self):
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(600):
            rt.alloc(64 * KIB)
        rt.end_invocation()
        rt.full_gc()  # hot: no shrink
        grown = rt._from.committed
        rt.full_gc()  # counter reset by previous full GC: now idle
        assert rt._from.committed < grown


class TestFullGC:
    def test_full_gc_frees_empty_chunks(self):
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(100):
            rt.alloc(32 * KIB)
        rt.collect(full=False)
        rt.collect(full=False)  # promote the frame-rooted survivors
        rt.end_invocation()
        chunks_before = len(rt._old.chunks)
        assert chunks_before > 0
        rt.full_gc()
        assert len(rt._old.chunks) < chunks_before

    def test_full_gc_unmaps_dead_large_objects(self):
        rt = make_runtime()
        rt.begin_invocation()
        rt.alloc(2 * MIB, scope="ephemeral")
        assert len(rt._large.objects) == 1
        rt.full_gc()
        assert len(rt._large.objects) == 0

    def test_aggressive_gc_drops_weak_jit_code(self):
        rt = make_runtime()
        rt.begin_invocation()
        step = rt.jit.invoke("f", 256 * KIB, warm_units=2, interp_penalty=2.0)
        assert step.multiplier == 2.0
        rt.full_gc(aggressive=False)
        assert rt.jit.warm_fraction("f", 2) == 0.5
        rt.full_gc(aggressive=True)
        assert rt.jit.warm_fraction("f", 2) == 0.0


class TestReclaim:
    def _run_hot(self, rt, n=400):
        rt.begin_invocation()
        for _ in range(n):
            rt.alloc(64 * KIB)
        state = rt.alloc(1 * MIB, scope="persistent")
        rt.end_invocation()
        return state

    def test_reclaim_beats_eager_gc(self):
        eager = make_runtime()
        self._run_hot(eager)
        eager.full_gc()
        desiccant = make_runtime()
        self._run_hot(desiccant)
        desiccant.reclaim()
        assert desiccant.uss() < eager.uss()

    def test_reclaim_shrinks_young_generation(self):
        rt = make_runtime()
        self._run_hot(rt)
        grown = rt._from.committed
        rt.reclaim()
        assert rt._from.committed < grown

    def test_reclaim_preserves_persistent_state(self):
        rt = make_runtime()
        state = self._run_hot(rt)
        rt.reclaim()
        assert state in rt.graph.objects

    def test_reclaim_keeps_chunk_metadata_pages(self):
        rt = make_runtime()
        rt.begin_invocation()
        state = rt.alloc(8 * KIB, scope="persistent")
        rt.collect(full=False)
        rt.collect(full=False)  # promote into a chunk
        rt.end_invocation()
        rt.reclaim()
        live_chunks = [
            c
            for c in rt._old.chunks
            if any(o == state for o, _ in c.objects)
        ]
        assert live_chunks
        assert 0 in live_chunks[0].mapping.pages

    def test_non_aggressive_reclaim_keeps_jit_code(self):
        rt = make_runtime()
        rt.begin_invocation()
        for _ in range(3):
            rt.jit.invoke("f", 256 * KIB, warm_units=3, interp_penalty=2.0)
        rt.end_invocation()
        assert rt.jit.warm_fraction("f", 3) == 1.0
        rt.reclaim(aggressive=False)
        assert rt.jit.warm_fraction("f", 3) == 1.0
        rt.reclaim(aggressive=True)
        assert rt.jit.warm_fraction("f", 3) == 0.0

    def test_reclaim_releases_most_chunk_payload(self):
        """§4.4: unmapping non-metadata pages releases ~98% of a chunk."""
        rt = make_runtime()
        rt.begin_invocation()
        state = rt.alloc(8 * KIB, scope="persistent")
        rt.collect(full=False)
        rt.collect(full=False)
        rt.end_invocation()
        rt.reclaim()
        chunk = next(
            c for c in rt._old.chunks if any(o == state for o, _ in c.objects)
        )
        resident = len(chunk.mapping.pages) * PAGE_SIZE
        # metadata page + the pages holding the 8 KiB object
        assert resident <= PAGE_SIZE + 16 * KIB
