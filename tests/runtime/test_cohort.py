"""Cohort and stream allocation: the batched paths vs the scalar reference.

``alloc_cohort(count, unit)`` must be *semantically identical* to
``count`` scalar ``alloc(unit)`` calls, and ``alloc_stream(runs)`` to one
scalar ``alloc`` per member in stream order -- same GC events (trigger
points, collected counts and bytes, pause seconds), same fault
attribution, same heap layout, same USS.  The differentials here replay
one workload through both paths -- the scalar one is the test-only
oracle of ``tests/oracles.py`` -- and compare every observable
checkpoint.  ``TestFaultRunBilling`` pins the fault bill of one cohort
touch, which walks the fault runs, to the member-by-member oracle bit for
bit.
"""

from __future__ import annotations

import pickle
import random
from contextlib import contextmanager, nullcontext

import pytest

from repro.mem.layout import KIB, MIB, PAGE_SIZE, page_ceil, page_floor
from repro.mem.physical import PhysicalMemory
from repro.mem.vmm import VirtualAddressSpace
from repro.runtime.base import ManagedRuntime
from repro.runtime.cpython.runtime import CPythonRuntime
from repro.runtime.golang.runtime import GoRuntime
from repro.runtime.hotspot.runtime import HotSpotRuntime
from repro.runtime.object_model import CohortObject, HeapObject, ObjectGraph
from repro.runtime.v8.chunks import CHUNK_PAYLOAD
from repro.runtime.v8.runtime import V8Config, V8Runtime
from repro.workloads.model import FunctionModel
from repro.workloads.registry import get_stage
from tests.oracles import (
    reference_touch_cohort_segment,
    scalar_alloc_cohort,
    scalar_alloc_stream,
)


@contextmanager
def _scalar_cohorts():
    """Runtimes allocate every cohort and every stream member as scalar
    ``alloc`` calls while this holds (the reference the batched paths
    must reproduce)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ManagedRuntime, "alloc_cohort", scalar_alloc_cohort)
        patch.setattr(ManagedRuntime, "alloc_stream", scalar_alloc_stream)
        yield


@pytest.fixture(autouse=True)
def record_gc(monkeypatch):
    """Spies on ``ManagedRuntime._record_gc``: each runtime keeps its
    collections as ``(kind, seconds, collected, live)`` tuples in order,
    read back by :func:`_collections` -- one of the observables the
    scalar and batched paths must agree on."""
    record = ManagedRuntime._record_gc

    def spying(self, kind, seconds, collected, live):
        self.__dict__.setdefault("_spied_collections", []).append(
            (kind, seconds, collected, live)
        )
        return record(self, kind, seconds, collected, live)

    monkeypatch.setattr(ManagedRuntime, "_record_gc", spying)


def _collections(runtime):
    """The runtime's collections so far (see the ``record_gc`` spy)."""
    return list(runtime.__dict__.get("_spied_collections", ()))


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
        assert loose_tail not in graph.reachable(include_weak=True)
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
    collections = _collections(runtime)
    log.append(("gc", len(collections), collections))
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
        _collections(runtime),
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
    """Counts ``split_cohort`` calls, records every cohort touch as
    ``(addr, floor, mappings the touched range spans)`` and every bump
    segment as ``(kind, unit, kept, eph)``."""
    record = {"splits": 0, "touches": [], "segments": []}
    split = ObjectGraph.split_cohort
    touch = ManagedRuntime._touch_cohort_segment
    bump = ManagedRuntime._bump_segment

    def counting_split(self, oid, head):
        record["splits"] += 1
        return split(self, oid, head)

    def recording_touch(self, addr, unit, members, floor=0):
        lo, hi = max(page_floor(addr), floor), page_ceil(addr + members * unit)
        spanned = sum(1 for m in self.space.mappings() if m.start < hi and m.end > lo)
        record["touches"].append((addr, floor, spanned))
        return touch(self, addr, unit, members, floor)

    def recording_bump(self, space, base, segment, kept, eph, oids):
        record["segments"].append((*segment, kept, eph))
        return bump(self, space, base, segment, kept, eph, oids)

    monkeypatch.setattr(ObjectGraph, "split_cohort", counting_split)
    monkeypatch.setattr(ManagedRuntime, "_touch_cohort_segment", recording_touch)
    monkeypatch.setattr(ManagedRuntime, "_bump_segment", recording_bump)
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


def _interleaved(rng, eph, frame, unit):
    """``(scope, unit, count)`` runs drawn the way ``FunctionModel.invoke``
    draws them: each object's scope weighted by the bytes left, each
    scope ending in a tail unit."""
    runs = []
    while eph + frame:
        if rng.random() < eph / (eph + frame):
            scope, size = "ephemeral", min(unit, eph)
            eph -= size
        else:
            scope, size = "frame", min(unit, frame)
            frame -= size
        if runs and runs[-1][:2] == (scope, size):
            runs[-1] = (scope, size, runs[-1][2] + 1)
        else:
            runs.append((scope, size, 1))
    return runs


def _mixed(segments):
    return [seg for seg in segments if seg[0] == "frame" and seg[2] and seg[3]]


def _random_stream_schedule(runtime, seed):
    """Seeded interleaved streams between scavenges, reclaims and
    swap-outs; returns the observables after every step."""
    rng = random.Random(seed)
    log = []
    for step in range(30):
        runtime.begin_invocation()
        runtime.touch_live_data()
        unit = rng.choice((4 * KIB, 5000, 16 * KIB, 24 * KIB, 64 * KIB))
        eph = rng.randint(0, 3 * MIB)
        frame = rng.randint(0, 768 * KIB)
        runtime.alloc_stream(_interleaved(rng, eph, frame, unit))
        log.append((step, "stream", _observe(runtime)))
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


BUMP_RUNTIMES = pytest.mark.parametrize(
    "factory",
    (HotSpotRuntime, V8Runtime, _v8_compacting),
    ids=("hotspot", "v8", "v8-compact"),
)


@BUMP_RUNTIMES
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_random_stream_matches_scalar(factory, seed, spy):
    scalar, fast, _runtime = _twin(factory, lambda rt: _random_stream_schedule(rt, seed))
    assert scalar == fast
    assert _mixed(spy["segments"])  # frame and ephemeral members shared segments
    assert spy["splits"]


class TestStreamTraps:
    """One scenario per place the stream placer could silently diverge
    from one scalar ``alloc`` per member; each also asserts the placer
    really fired, so the comparison cannot pass on two scalar legs."""

    @pytest.mark.parametrize("factory", (HotSpotRuntime, V8Runtime), ids=("hotspot", "v8"))
    def test_exact_fill_then_ephemeral_overflow_scavenges(self, factory, spy):
        unit = PAGE_SIZE

        def scenario(rt):
            rt.begin_invocation()
            space, _base = rt._bump_space()
            assert space.free % unit == 0
            members = space.free // unit
            frame = members // 3
            rt.alloc_stream(
                [
                    ("frame", unit, frame),
                    ("ephemeral", unit, members - 2 * frame),
                    ("frame", unit, frame),
                    ("ephemeral", unit, 1),  # does not fit: its placement scavenges
                    ("frame", unit, 5),
                ]
            )
            log = [(members, frame), _collections(rt), _observe(rt)]
            rt.end_invocation()
            rt.collect(full=False)
            log.append(_observe(rt))
            return log

        scalar, fast, _runtime = _twin(factory, scenario)
        assert scalar == fast
        (members, frame), events = fast[0], fast[1]
        # The segment filled the space exactly, frame and ephemeral
        # members together; the overflow member scavenged with itself
        # still live (the placement guard) and its segment's ephemerals dead.
        assert spy["segments"][0] == ("frame", unit, 2 * frame, members - 2 * frame)
        assert [(kind, collected, live) for kind, _, collected, live in events] == [
            ("young", (members - 2 * frame) * unit, (2 * frame + 1) * unit)
        ]

    def test_mixed_frame_survivors_overflow_to(self, spy):
        def scenario(rt):
            rt.begin_invocation()
            to_free = rt._to.free
            rt.alloc_stream(_interleaved(random.Random(7), 1 * MIB, 800 * KIB, 16 * KIB))
            log = [to_free, _collections(rt)]
            rt.collect(full=False)  # frame survivors fill `to`, the rest promote
            log.append(_observe(rt))
            rt.end_invocation()
            rt.collect(full=False)
            log.append(_observe(rt))
            return log

        scalar, fast, _runtime = _twin(HotSpotRuntime, scenario)
        assert scalar == fast
        to_free, events = fast[0], fast[1]
        assert not events and 800 * KIB > to_free  # all in eden; `to` overflows
        assert spy["splits"] >= 1
        assert _mixed(spy["segments"])

    def test_v8_mixed_frame_survivors_overflow_skewed_to(self, spy):
        def scenario(rt):
            rt.begin_invocation()
            rt.alloc_stream(_interleaved(random.Random(3), 300 * KIB, 500 * KIB, 10 * KIB))
            rt._set_semi_committed(rt._to, 256 * KIB)
            rt.collect(full=False)
            log = [_observe(rt)]
            rt.end_invocation()
            return log

        scalar, fast, _runtime = _twin(V8Runtime, scenario)
        assert scalar == fast
        assert spy["splits"] >= 1
        assert _mixed(spy["segments"])

    @pytest.mark.parametrize("factory", (V8Runtime, _v8_compacting), ids=("v8", "v8-compact"))
    def test_v8_frame_survivors_promote_on_second_scavenge(self, factory, spy):
        """Frame members of mixed segments survive two scavenges inside
        one invocation and promote into old chunks, straddling them."""
        unit = 10 * KIB

        def scenario(rt):
            log = []
            rt.begin_invocation()
            rt.alloc_stream(_interleaved(random.Random(5), 400 * KIB, 400 * KIB, unit))
            rt.collect(full=False)
            log.append(_observe(rt))
            rt.alloc_stream(_interleaved(random.Random(6), 300 * KIB, 100 * KIB, unit))
            rt.collect(full=False)  # the first stream's frame members tenure
            log.append(_observe(rt))
            frame = rt.graph._frames[-1]
            log.append(sum(any(oid in frame for oid, _ in c.objects) for c in rt._old.chunks))
            rt.end_invocation()
            rt.reclaim()
            log.append(_observe(rt))
            return log

        scalar, fast, _runtime = _twin(factory, scenario)
        assert scalar == fast
        assert fast[2] >= 2  # promoted frame survivors straddle old chunks
        assert spy["splits"] >= 1
        assert _mixed(spy["segments"])

    def test_hotspot_promotion_failure_turns_scavenge_into_full_gc(self, spy):
        def scenario(rt):
            rt.begin_invocation()
            # Garbage that fills the old generation to 512 KiB below its
            # reserve: the next scavenge cannot promise room for its
            # survivors, so it runs a full collection instead.
            big = rt._old.reserved - rt._old.top - 512 * KIB
            assert big > rt._eden.reserved
            rt.free_persistent(rt.alloc(big, scope="persistent"))
            full_before = rt.full_gc_count
            rt.alloc_stream(_interleaved(random.Random(11), 4 * MIB, 2 * MIB, 32 * KIB))
            log = [rt.full_gc_count - full_before, _observe(rt)]
            rt.end_invocation()
            rt.collect(full=False)
            log.append(_observe(rt))
            return log

        scalar, fast, _runtime = _twin(HotSpotRuntime, scenario)
        assert scalar == fast
        assert fast[0] >= 1
        assert _mixed(spy["segments"])

    @pytest.mark.parametrize("factory", (HotSpotRuntime, V8Runtime), ids=("hotspot", "v8"))
    def test_swapped_pages_below_touched_stay_swapped(self, factory, spy):
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
            rt.alloc_stream(_interleaved(random.Random(2), 400 * KIB, 200 * KIB, 24 * KIB))
            log = [rt.space.faults.major - majors, _observe(rt)]
            rt.end_invocation()
            return log

        scalar, fast, _runtime = _twin(factory, scenario)
        assert scalar == fast
        assert fast[0] == 0  # scalar _materialize never re-touches them
        assert any(floor > addr for addr, floor, _spanned in spy["touches"])
        assert _mixed(spy["segments"])

    @pytest.mark.parametrize(
        "factory", (HotSpotRuntime, V8Runtime, _v8_compacting), ids=("hotspot", "v8", "v8-compact")
    )
    def test_persistent_and_weak_runs_interleave_with_frame_runs(self, factory, spy):
        unit = 12 * KIB
        runs = [
            ("frame", unit, 7),
            ("ephemeral", unit, 3),
            ("persistent", unit, 4),
            ("frame", unit, 2),
            ("weak", unit, 3),
            ("ephemeral", unit, 5),
            ("frame", unit, 6),
            ("persistent", unit, 2),
            ("frame", unit, 9),
            ("ephemeral", unit, 11),
        ]

        def scenario(rt):
            log = []
            for step in range(3):
                rt.begin_invocation()
                rt.alloc_stream(runs * 4)
                rt.collect(full=False)
                log.append(_observe(rt))
                rt.alloc_stream(runs)
                rt.collect(full=False)  # V8: frame, persistent, weak promote together
                log.append(_observe(rt))
                rt.end_invocation()
                log.append(("reclaim", rt.reclaim(aggressive=step == 1)))
                log.append(_observe(rt))
            return log

        scalar, fast, _runtime = _twin(factory, scenario)
        assert scalar == fast
        kinds = {seg[0] for seg in spy["segments"]}
        assert kinds == {"frame", "persistent", "weak"}
        assert all(not eph for kind, _u, _k, eph in spy["segments"] if kind != "frame")
        assert _mixed(spy["segments"])


class TestStreamSegmentCount:
    """A fallback to one segment per run would be exact too, so digests
    cannot see it: count the segments instead.

    A stream places one segment per unit stretch (a maximal span of
    runs sharing a unit), plus one more after each member that did not
    fit and went through scalar ``alloc``.  The model's streams have at
    most four stretches (object-sized members around each scope's tail
    unit), so per-run placement -- dozens of runs -- cannot hide under
    the bound.
    """

    @pytest.mark.parametrize(
        "factory, function",
        (
            (HotSpotRuntime, "sort"),
            (HotSpotRuntime, "file-hash"),
            (V8Runtime, "dynamic-html"),
            (V8Runtime, "fft"),
        ),
    )
    def test_each_invocation_places_few_segments(self, factory, function, monkeypatch):
        calls = []  # one [runs, segments, overflow members] per stream
        inside = {"stream": False, "alloc": 0}
        touch = ManagedRuntime._touch_cohort_segment
        alloc = ManagedRuntime.alloc
        stream = ManagedRuntime.alloc_stream

        def spying_stream(self, runs):
            calls.append([list(runs), 0, 0])
            inside["stream"] = True
            try:
                return stream(self, runs)
            finally:
                inside["stream"] = False

        def spying_alloc(self, size, scope="frame"):
            if inside["stream"] and not inside["alloc"]:
                calls[-1][2] += 1  # a member that did not fit
            inside["alloc"] += 1
            try:
                return alloc(self, size, scope)
            finally:
                inside["alloc"] -= 1

        def spying_touch(self, addr, unit, members, floor=0):
            if inside["stream"] and not inside["alloc"]:
                calls[-1][1] += 1  # a segment, not a promotion inside a GC
            return touch(self, addr, unit, members, floor)

        monkeypatch.setattr(ManagedRuntime, "alloc_stream", spying_stream)
        monkeypatch.setattr(ManagedRuntime, "alloc", spying_alloc)
        monkeypatch.setattr(ManagedRuntime, "_touch_cohort_segment", spying_touch)
        runtime = factory("segments")
        runtime.boot()
        model = FunctionModel(get_stage(function), seed=3)
        for _ in range(8):
            model.invoke(runtime)

        assert len(calls) == 8
        caught = 0  # streams where one segment per run would break the bound
        for runs, segments, overflows in calls:
            stretches = 1 + sum(a[1] != b[1] for a, b in zip(runs, runs[1:]))
            assert stretches <= 4
            assert 1 <= segments <= stretches + overflows
            caught += len(runs) - overflows > stretches + overflows
        assert any(overflows for _runs, _segments, overflows in calls)
        assert caught == len(calls)


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

    @pytest.mark.parametrize(
        "factory", (CPythonRuntime, HotSpotRuntime, V8Runtime), ids=("cpython", "hotspot", "v8")
    )
    def test_stream_rejects_unknown_scope(self, factory):
        runtime = factory("scope")
        runtime.boot()
        runtime.begin_invocation()
        with pytest.raises(ValueError, match="unknown scope"):
            runtime.alloc_stream([("frame", 4 * KIB, 3), ("global", 4 * KIB, 2)])


class _Meter:
    """The part of a runtime a cohort touch reads and writes: the address
    space and the invocation's fault meter."""

    _charge_faults = ManagedRuntime._charge_faults

    def __init__(self, space, seconds):
        self.space = space
        self.invocation_fault_seconds = seconds


#: Meter readings the bills start from.  Whether a bill split in two
#: rounds differently from the whole bill depends on the meter's binade,
#: so the differential runs from several: 0.0, plus binades where one
#: 3-page bill differs from 1 + 2 pages (2**-10, 2**7), 2 pages from
#: 1 + 1 and a minor-plus-major bill from its parts (2**-9, 2**-1, 2**0).
METER_STARTS = (0.0, 1.37 * 2**-10, 1.37 * 2**-9, 0.685, 1.37, 175.36)


def _page_multiple_unaligned(space):
    m = space.mmap(256 * PAGE_SIZE)
    return m.start + 100, 2 * PAGE_SIZE, 120, 0


def _non_multiple_units(space):
    m = space.mmap(256 * PAGE_SIZE)
    return m.start + 700, 3 * PAGE_SIZE + 808, 60, 0


def _sub_page_units(space):
    m = space.mmap(256 * PAGE_SIZE)
    return m.start + 300, 1000, 400, 0


def _floor_inside(space):
    m = space.mmap(256 * PAGE_SIZE)
    return m.start + 100, 2 * PAGE_SIZE, 120, m.start + 37 * PAGE_SIZE


def _dirty_pages_split_runs(space):
    # Members of 4 pages from an unaligned start: member k >= 1 spans
    # pages [4k + 1, 4k + 5), so a dirty page 4k + 2 or 4k + 3 sits
    # inside member k, which then straddles the fault runs on either side.
    m = space.mmap(256 * PAGE_SIZE)
    for k in range(1, 60, 3):
        space.touch(m.start + (4 * k + 2 + k % 2) * PAGE_SIZE, PAGE_SIZE)
    return m.start + 1000, 4 * PAGE_SIZE, 60, 0


def _swapped_run_in_fold_group(space):
    # Members of 2 pages span [2k + 1, 2k + 3): pages 40 and 120 sit
    # inside members 19 and 59, which each owe minor and major pages.
    m = space.mmap(256 * PAGE_SIZE)
    space.touch(m.start + 40 * PAGE_SIZE, 80 * PAGE_SIZE)
    assert space.swap_out_range(m.start + 40 * PAGE_SIZE, 80 * PAGE_SIZE).swapped == 80
    return m.start + 100, 2 * PAGE_SIZE, 120, 0


def _mprotect_split(space):
    # Members of 2 pages span [2k + 1, 2k + 3), so each commit below
    # splits the reservation inside a member (like a heap growing by
    # commits), and the run of fresh pages breaks at every split.
    m = space.mmap(256 * PAGE_SIZE)
    for page in range(8, 240, 14):
        space.commit(m.start + page * PAGE_SIZE, 14 * PAGE_SIZE)
    assert len(space.mappings()) == 19
    return m.start + 100, 2 * PAGE_SIZE, 120, 0


def _random_case(seed):
    """Random dirty, swapped and split pages under a random segment."""

    def build(space):
        rng = random.Random(seed)
        m = space.mmap(128 * PAGE_SIZE)
        end = m.end  # the commits below cut ``m`` short
        for _ in range(rng.randint(0, 3)):
            space.commit(m.start + rng.randint(1, 127) * PAGE_SIZE, PAGE_SIZE)
        for _ in range(rng.randint(0, 6)):
            first = rng.randint(0, 120)
            space.touch(m.start + first * PAGE_SIZE, rng.randint(1, 8) * PAGE_SIZE)
        for _ in range(rng.randint(0, 2)):
            first = rng.randint(0, 120)
            space.swap_out_range(m.start + first * PAGE_SIZE, rng.randint(1, 8) * PAGE_SIZE)
        unit = rng.choice((PAGE_SIZE, 2 * PAGE_SIZE, 3 * PAGE_SIZE, 1000, 5000, 6 * KIB))
        addr = m.start + rng.randint(0, 8 * PAGE_SIZE)
        members = rng.randint(1, (end - addr) // unit)
        floor = rng.choice((0, m.start + rng.randint(0, 40) * PAGE_SIZE))
        return addr, unit, members, floor

    return build


BILLING_CASES = {
    "page-multiple-unaligned": _page_multiple_unaligned,
    "non-multiple-units": _non_multiple_units,
    "sub-page-units": _sub_page_units,
    "floor-inside": _floor_inside,
    "dirty-pages-split-runs": _dirty_pages_split_runs,
    "swapped-run-in-fold-group": _swapped_run_in_fold_group,
    "mprotect-split": _mprotect_split,
    **{f"random-{seed}": _random_case(seed) for seed in range(24)},
}


class TestFaultRunBilling:
    """The run-walking bill vs the member-by-member oracle: the same
    float additions in the same order, so the meters agree bit for bit."""

    @pytest.mark.parametrize("case", BILLING_CASES)
    def test_matches_per_member_oracle(self, case):
        for start in METER_STARTS:
            results = []
            for touch in (ManagedRuntime._touch_cohort_segment, reference_touch_cohort_segment):
                space = VirtualAddressSpace(case, PhysicalMemory())
                args = BILLING_CASES[case](space)
                meter = _Meter(space, start)
                counts = touch(meter, *args)
                results.append(
                    (
                        float.hex(meter.invocation_fault_seconds),
                        (counts.minor, counts.major),
                        [list(m.runs()) for m in space.mappings()],
                    )
                )
            assert results[0] == results[1], start
            if not case.startswith("random"):
                assert results[0][0] != float.hex(start)  # something was billed
