"""Cohort allocation: the batched path vs the scalar reference.

``alloc_cohort(count, unit)`` must be *semantically identical* to
``count`` scalar ``alloc(unit)`` calls -- same GC events (trigger points,
collected counts and bytes, pause seconds), same fault attribution, same
heap layout, same USS.  The differential here replays one mixed workload
through both paths -- the scalar one is the test-only oracle of
``tests/oracles.py`` -- and compares every observable checkpoint.
"""

from __future__ import annotations

import pickle
import random
from contextlib import contextmanager, nullcontext

import pytest

from repro.mem.layout import KIB, MIB, page_ceil, page_floor
from repro.runtime.base import ManagedRuntime
from repro.runtime.cpython.runtime import CPythonRuntime
from repro.runtime.golang.runtime import GoRuntime
from repro.runtime.hotspot.runtime import HotSpotRuntime
from repro.runtime.object_model import CohortObject, HeapObject, ObjectGraph
from repro.runtime.v8.chunks import CHUNK_PAYLOAD
from repro.runtime.v8.runtime import V8Config, V8Runtime
from tests.oracles import scalar_alloc_cohort


@contextmanager
def _scalar_cohorts():
    """Runtimes allocate every cohort as scalar ``alloc`` calls while
    this holds (the reference the batched path must reproduce)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ManagedRuntime, "alloc_cohort", scalar_alloc_cohort)
        yield


def _v8_compacting(name):
    return V8Runtime(name, V8Config(compact_on_reclaim=True))


#: Every runtime with a cohort fast path, plus V8's compacting reclaim
#: (old-space compaction re-places split cohorts chunk by chunk).
RUNTIMES = pytest.mark.parametrize(
    "factory",
    (CPythonRuntime, GoRuntime, HotSpotRuntime, V8Runtime, _v8_compacting),
    ids=("cpython", "go", "hotspot", "v8", "v8-compact"),
)


class TestObjectModel:
    def test_member_counts(self):
        assert HeapObject(oid=1, size=8).member_count == 1
        cohort = CohortObject(oid=2, size=96, count=12, unit=8)
        assert cohort.member_count == 12

    def test_new_cohort_size_and_validation(self):
        graph = ObjectGraph()
        oid = graph.new_cohort(5, 64)
        obj = graph.objects[oid]
        assert isinstance(obj, CohortObject)
        assert obj.size == 5 * 64 and obj.count == 5 and obj.unit == 64
        with pytest.raises(ValueError):
            graph.new_cohort(0, 64)
        with pytest.raises(ValueError):
            graph.new_cohort(5, 0)

    def test_sweep_counts_cohort_members(self):
        graph = ObjectGraph()
        kept = graph.new_object(32)
        graph.root_persistent(kept)
        graph.new_cohort(10, 16)  # unrooted: dies at the next sweep
        graph.new_object(8)
        count, volume = graph.sweep(graph.reachable())
        assert count == 11  # 10 members + 1 scalar
        assert volume == 10 * 16 + 8

    def test_split_cohort_shapes(self):
        graph = ObjectGraph()
        oid = graph.new_cohort(10, 64)
        graph.objects[oid].age = 3
        tail = graph.split_cohort(oid, 4)
        head_obj, tail_obj = graph.objects[oid], graph.objects[tail]
        assert (head_obj.count, head_obj.size, head_obj.unit) == (4, 4 * 64, 64)
        assert (tail_obj.count, tail_obj.size, tail_obj.unit) == (6, 6 * 64, 64)
        assert isinstance(tail_obj, CohortObject) and tail_obj.oid == tail
        assert head_obj.age == tail_obj.age == 3
        assert tail != oid

    def test_split_cohort_copies_every_root_set_holding_the_head(self):
        graph = ObjectGraph()
        graph.push_frame()
        outer = graph.new_cohort(6, 32)
        graph.root_in_frame(outer)
        graph.push_frame()
        inner = graph.new_cohort(6, 32)
        graph.root_in_frame(inner)
        persistent = graph.new_cohort(6, 32)
        graph.root_persistent(persistent)
        weak = graph.new_cohort(6, 32)
        graph.root_weak(weak)
        loose = graph.new_cohort(6, 32)

        outer_tail = graph.split_cohort(outer, 2)
        inner_tail = graph.split_cohort(inner, 2)
        persistent_tail = graph.split_cohort(persistent, 2)
        weak_tail = graph.split_cohort(weak, 2)
        loose_tail = graph.split_cohort(loose, 2)

        outer_frame, inner_frame = graph._frames
        assert outer_tail in outer_frame and outer_tail not in inner_frame
        assert inner_tail in inner_frame and inner_tail not in outer_frame
        assert graph.persistent_roots == {persistent, persistent_tail}
        assert graph.weak_roots == {weak, weak_tail}
        assert loose_tail not in graph.all_roots(include_weak=True)
        strong = graph.reachable(include_weak=False)
        assert strong == {outer, outer_tail, inner, inner_tail, persistent, persistent_tail}

    def test_sweep_counts_split_members_exactly(self):
        graph = ObjectGraph()
        graph.push_frame()
        dead = graph.new_cohort(10, 16)
        graph.split_cohort(dead, 3)
        kept = graph.new_cohort(7, 16)
        graph.root_in_frame(kept)
        graph.split_cohort(kept, 5)
        count, volume = graph.sweep(graph.reachable())
        assert (count, volume) == (10, 10 * 16)
        assert sum(o.member_count for o in graph.objects.values()) == 7
        graph.pop_frame()
        assert graph.sweep(graph.reachable()) == (7, 7 * 16)

    @pytest.mark.parametrize("head", (0, -1, 5, 6))
    def test_split_cohort_rejects_empty_sides(self, head):
        graph = ObjectGraph()
        oid = graph.new_cohort(5, 64)
        with pytest.raises(ValueError):
            graph.split_cohort(oid, head)
        assert graph.objects[oid].count == 5 and len(graph.objects) == 1

    def test_split_cohort_rejects_plain_objects(self):
        graph = ObjectGraph()
        with pytest.raises(TypeError):
            graph.split_cohort(graph.new_object(64), 1)

    def test_split_graph_survives_pickle(self):
        """Checkpoints pickle the graph."""
        graph = ObjectGraph()
        graph.push_frame()
        oid = graph.new_cohort(9, 128)
        graph.root_in_frame(oid)
        graph.objects[oid].age = 1
        tail = graph.split_cohort(oid, 4)
        clone = pickle.loads(pickle.dumps(graph))
        for key in (oid, tail):
            a, b = graph.objects[key], clone.objects[key]
            assert type(b) is CohortObject
            assert (a.oid, a.size, a.count, a.unit, a.age) == (
                b.oid, b.size, b.count, b.unit, b.age
            )
        assert clone._frames == [{oid, tail}]
        assert clone.new_object(8) == graph.new_object(8)


def _drive(runtime):
    """One mixed workload; returns every observable checkpoint."""
    log = []
    runtime.boot()
    for inv in range(3):
        runtime.begin_invocation()
        runtime.touch_live_data()
        if inv == 0:
            runtime.alloc_cohort(8, 32 * KIB, scope="persistent")
        # Crosses GC triggers repeatedly; includes unaligned unit sizes.
        runtime.alloc_cohort(150, 24 * KIB, scope="ephemeral")
        runtime.alloc_cohort(45, 40 * KIB, scope="frame")
        runtime.alloc_cohort(1, 7 * KIB, scope="ephemeral")
        runtime.alloc_cohort(17, 5000, scope="frame")
        log.append((inv, runtime.invocation_fault_seconds, runtime.invocation_gc_seconds))
        runtime.end_invocation()
    outcome = runtime.reclaim()
    log.append(("reclaim", outcome))
    # Swap the heap out, then allocate over the swapped free space: cohort
    # touches must bill major faults to the same members the scalar path does.
    for mapping in runtime._heap_mappings():
        runtime.space.swap_out_range(mapping.start, mapping.length)
    runtime.begin_invocation()
    runtime.touch_live_data()
    runtime.alloc_cohort(120, 16 * KIB, scope="ephemeral")
    log.append(("post-swap", runtime.invocation_fault_seconds))
    runtime.end_invocation()
    log.append(("final-gc", runtime.collect(full=True)))
    stats = runtime.heap_stats()
    log.append(("heap", stats.committed, stats.used, stats.live_estimate))
    log.append(("uss", runtime.uss(), runtime.heap_resident_bytes(), runtime.live_bytes()))
    log.append(
        (
            "gc",
            len(runtime.gc_events),
            [(e.kind, e.seconds, e.collected_bytes, e.live_bytes) for e in runtime.gc_events],
        )
    )
    log.append(("faults", runtime.space.faults.minor, runtime.space.faults.major))
    return log


@RUNTIMES
class TestDifferential:
    def test_cohort_path_matches_scalar_path(self, factory):
        with _scalar_cohorts():
            scalar = _drive(factory("scalar"))
        cohort = _drive(factory("cohort"))
        assert scalar == cohort

    def test_member_total_is_exact(self, factory):
        """The batched path may fuse members into fewer graph nodes, but
        the mutator-visible object count and byte volume must stay exact."""
        runtime = factory("shape")
        runtime.boot()
        runtime.begin_invocation()
        oids = runtime.alloc_cohort(40, 8 * KIB, scope="frame")
        members = sum(runtime.graph.objects[oid].member_count for oid in set(oids))
        assert members == 40
        volume = sum(runtime.graph.objects[oid].size for oid in set(oids))
        assert volume == 40 * 8 * KIB
        runtime.end_invocation()


def _observe(runtime):
    """Every observable the two paths must agree on, at one moment."""
    stats = runtime.heap_stats()
    return (
        runtime.invocation_fault_seconds,
        runtime.total_gc_seconds,
        [(e.kind, e.seconds, e.collected_bytes, e.live_bytes) for e in runtime.gc_events],
        (stats.committed, stats.used, stats.live_estimate),
        (runtime.uss(), runtime.heap_resident_bytes(), runtime.live_bytes()),
        (runtime.space.faults.minor, runtime.space.faults.major),
        sum(obj.member_count for obj in runtime.graph.objects.values()),
        [
            (m.start, m.length, m.prot, list(m.runs()))
            for m in runtime.space.mappings()
        ],
    )


def _twin(factory, scenario):
    """Run ``scenario`` scalar and batched; return both logs and the
    batched runtime."""
    logs = []
    for fast in (False, True):
        with nullcontext() if fast else _scalar_cohorts():
            runtime = factory("fast" if fast else "scalar")
            runtime.boot()
            logs.append(scenario(runtime))
            logs[-1].append(_observe(runtime))
    return logs[0], logs[1], runtime


@pytest.fixture
def spy(monkeypatch):
    """Counts ``split_cohort`` calls and records every cohort touch as
    ``(addr, floor, mappings the touched range spans)``."""
    record = {"splits": 0, "touches": []}
    split = ObjectGraph.split_cohort
    touch = ManagedRuntime._touch_cohort_segment

    def counting_split(self, oid, head):
        record["splits"] += 1
        return split(self, oid, head)

    def recording_touch(self, addr, unit, members, floor=0):
        lo, hi = max(page_floor(addr), floor), page_ceil(addr + members * unit)
        spanned = sum(1 for m in self.space.mappings() if m.start < hi and m.end > lo)
        record["touches"].append((addr, floor, spanned))
        return touch(self, addr, unit, members, floor)

    monkeypatch.setattr(ObjectGraph, "split_cohort", counting_split)
    monkeypatch.setattr(ManagedRuntime, "_touch_cohort_segment", recording_touch)
    return record


def _cohorts(runtime):
    return [o for o in runtime.graph.objects.values() if isinstance(o, CohortObject)]


class TestExactnessTraps:
    """One scenario per place the batched path could silently diverge.

    Each asserts the fast path really fired (cohort nodes exist, the
    trap's split or touch shape happened), so the comparison cannot
    pass by both legs running scalar code.
    """

    def test_survivor_cohort_straddling_to(self, spy):
        def scenario(rt):
            rt.begin_invocation()
            to_free = rt._to.free
            rt.alloc_cohort(20, 64 * KIB, scope="frame")
            assert 20 * 64 * KIB > to_free >= 64 * KIB
            rt.collect(full=False)  # leading members fill `to`, rest promote
            log = [_observe(rt), [(o.count, o.age) for o in _cohorts(rt)]]
            rt.end_invocation()
            rt.collect(full=False)
            return log

        scalar, fast, runtime = _twin(HotSpotRuntime, scenario)
        assert scalar[0] == fast[0] and scalar[2:] == fast[2:]
        assert spy["splits"] == 1
        assert sorted(fast[1]) == [(4, 1), (16, 1)]

    def test_v8_survivor_cohort_straddling_skewed_to(self, spy):
        """V8 keeps both semispaces the same size, so only a skewed pair
        overflows ``to``; the scavenge must still cut the run there."""

        def scenario(rt):
            rt.begin_invocation()
            rt.alloc_cohort(12, 64 * KIB, scope="frame")
            rt._set_semi_committed(rt._to, 256 * KIB)
            rt.collect(full=False)
            log = [_observe(rt), sorted((o.count, o.age) for o in _cohorts(rt))]
            rt.end_invocation()
            return log

        scalar, fast, _runtime = _twin(V8Runtime, scenario)
        assert scalar[0] == fast[0] and scalar[2:] == fast[2:]
        # Four members fill `to`; the other eight promote three per
        # 252 KiB chunk.
        assert spy["splits"] == 3
        assert fast[1] == [(2, 1), (3, 1), (3, 1), (4, 1)]

    @pytest.mark.parametrize("factory", (V8Runtime, _v8_compacting), ids=("v8", "v8-compact"))
    def test_v8_promotion_straddles_old_chunks(self, factory, spy):
        unit = 10 * KIB
        count = 40  # 400 KiB: more than one chunk's payload
        assert count * unit > CHUNK_PAYLOAD

        def scenario(rt):
            log = []
            rt.begin_invocation()
            rt.alloc_cohort(count, unit, scope="persistent")
            rt.alloc_cohort(30, unit, scope="frame")
            rt.collect(full=False)
            rt.collect(full=False)  # second survival tenures: promotion
            log.append(_observe(rt))
            rt.end_invocation()
            rt.full_gc()  # evacuation re-places the young survivors
            log.append(_observe(rt))
            rt.reclaim()  # compacts the old space on the compacting twin
            chunks = [
                c for c in rt._old.chunks
                if any(isinstance(rt.graph.objects.get(oid), CohortObject) for oid, _ in c.objects)
            ]
            log.append(len(chunks))
            return log

        scalar, fast, runtime = _twin(factory, scenario)
        assert scalar[:2] == fast[:2] and scalar[3:] == fast[3:]
        assert spy["splits"] >= 1
        assert fast[2] >= 2  # the run really straddles chunks
        assert sum(o.count for o in _cohorts(runtime)) == count

    @pytest.mark.parametrize("factory", (HotSpotRuntime, V8Runtime), ids=("hotspot", "v8"))
    def test_swapped_pages_below_touched_watermark_stay_swapped(self, factory, spy):
        def scenario(rt):
            rt.begin_invocation()
            rt.alloc_cohort(12, 64 * KIB, scope="ephemeral")
            rt.collect(full=False)
            rt.collect(full=False)  # V8: back to the touched semispace
            swapped = sum(
                rt.space.swap_out_range(m.start, m.length).swapped
                for m in rt._heap_mappings()
            )
            assert swapped > 0
            majors = rt.space.faults.major
            rt.alloc_cohort(6, 64 * KIB, scope="frame")
            log = [rt.space.faults.major - majors, _observe(rt)]
            rt.end_invocation()
            return log

        scalar, fast, _runtime = _twin(factory, scenario)
        assert scalar == fast
        assert fast[0] == 0  # scalar _materialize never re-touches them
        # The batched segment started under the watermark.
        assert any(floor > addr for addr, floor, _spanned in spy["touches"])

    def test_eden_run_spans_several_mappings_after_growth(self, spy):
        def scenario(rt):
            rt.begin_invocation()
            # A huge old-space object grows the old generation, so the
            # next scavenge grows eden: one more commit, one more mapping.
            rt.alloc(60 * MIB, scope="persistent")
            eden_before = rt._eden.committed
            rt.alloc_cohort(31, 64 * KIB, scope="frame")
            rt.alloc_cohort(40, 64 * KIB, scope="frame")
            log = [rt._eden.committed > eden_before, _observe(rt)]
            rt.end_invocation()
            rt.collect(full=False)
            return log

        scalar, fast, runtime = _twin(HotSpotRuntime, scenario)
        assert scalar == fast
        assert fast[0]
        assert _cohorts(runtime)
        assert max(spanned for _a, _f, spanned in spy["touches"]) >= 2


def _random_schedule(runtime, seed):
    """A seeded mix of cohort sizes and scopes, scavenges, reclaims,
    and swap-outs; returns the observables after every step."""
    rng = random.Random(seed)
    log = []
    persistent = 0
    for step in range(40):
        runtime.begin_invocation()
        runtime.touch_live_data()
        for _ in range(rng.randint(1, 5)):
            scope = rng.choice(("ephemeral", "ephemeral", "frame", "persistent", "weak"))
            unit = rng.choice((512, 4 * KIB, 5000, 24 * KIB, 64 * KIB, 100 * KIB))
            count = rng.randint(1, 12 if scope in ("persistent", "weak") else 80)
            if scope == "persistent":
                # Cached state only accumulates: cap it to bound the heap.
                if persistent + count * unit > 6 * MIB:
                    scope = "frame"
                else:
                    persistent += count * unit
            runtime.alloc_cohort(count, unit, scope=scope)
        runtime.end_invocation()
        roll = rng.random()
        if roll < 0.15:
            log.append(("reclaim", runtime.reclaim(aggressive=rng.random() < 0.3)))
        elif roll < 0.25:
            for mapping in runtime._heap_mappings():
                if rng.random() < 0.5:
                    runtime.space.swap_out_range(mapping.start, mapping.length)
        elif roll < 0.35:
            runtime.collect(full=rng.random() < 0.5)
        log.append((step, _observe(runtime)))
    return log


@RUNTIMES
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_random_schedule_matches_scalar(factory, seed, spy):
    scalar, fast, runtime = _twin(factory, lambda rt: _random_schedule(rt, seed))
    assert scalar == fast
    assert spy["touches"] and _cohorts(runtime)
    if factory not in (CPythonRuntime, GoRuntime):
        assert spy["splits"]  # the moving collectors cut runs


class TestScalarFallbacks:
    def test_count_one_stays_scalar(self):
        runtime = CPythonRuntime("fallback")
        runtime.boot()
        runtime.begin_invocation()
        oids = runtime.alloc_cohort(1, 4 * KIB, scope="frame")
        assert len(oids) == 1
        assert not isinstance(runtime.graph.objects[oids[0]], CohortObject)
        runtime.end_invocation()

    def test_large_units_stay_scalar(self):
        """Units past the large-object threshold take the scalar path
        (they never share arena chunks)."""
        runtime = CPythonRuntime("large")
        threshold = runtime.config.large_object_threshold
        runtime.boot()
        runtime.begin_invocation()
        oids = runtime.alloc_cohort(2, threshold, scope="frame")
        for oid in oids:
            assert not isinstance(runtime.graph.objects[oid], CohortObject)
        runtime.end_invocation()

    def test_zero_count_returns_empty(self):
        runtime = CPythonRuntime("empty")
        runtime.boot()
        assert runtime.alloc_cohort(0, 4 * KIB) == []
