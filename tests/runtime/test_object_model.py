"""Unit tests for the object graph and its root-set liveness."""

import pytest

from repro.runtime.object_model import ObjectGraph


@pytest.fixture
def graph():
    return ObjectGraph()


class TestMutation:
    def test_new_object_assigns_unique_ids(self, graph):
        a = graph.new_object(100)
        b = graph.new_object(200)
        assert a != b
        assert graph.objects[a].size == 100

    def test_zero_size_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.new_object(0)

    def test_frame_rooting_requires_open_frame(self, graph):
        oid = graph.new_object(10)
        with pytest.raises(RuntimeError):
            graph.root_in_frame(oid)

    def test_pop_frame_without_push_raises(self, graph):
        with pytest.raises(RuntimeError):
            graph.pop_frame()


class TestReachability:
    def test_unrooted_object_is_unreachable(self, graph):
        graph.new_object(10)
        assert graph.reachable() == set()

    def test_persistent_root_keeps_chain_alive(self, graph):
        a = graph.new_object(10)
        b = graph.new_object(20)
        graph.new_object(40)  # unrooted: garbage
        graph.root_persistent(a)
        graph.root_persistent(b)
        assert graph.reachable() == {a, b}
        assert graph.live_bytes() == 30

    def test_frame_roots_die_with_frame(self, graph):
        graph.push_frame()
        oid = graph.new_object(10)
        graph.root_in_frame(oid)
        assert graph.reachable() == {oid}
        graph.pop_frame()
        assert graph.reachable() == set()

    def test_nested_frames_both_root(self, graph):
        graph.push_frame()
        outer = graph.new_object(10)
        graph.root_in_frame(outer)
        graph.push_frame()
        inner = graph.new_object(10)
        graph.root_in_frame(inner)
        assert graph.reachable() == {outer, inner}
        graph.pop_frame()
        assert graph.reachable() == {outer}

    def test_weak_roots_excluded_when_aggressive(self, graph):
        oid = graph.new_object(10)
        graph.root_weak(oid)
        assert graph.reachable(include_weak=True) == {oid}
        assert graph.reachable(include_weak=False) == set()


class TestSweep:
    def test_sweep_removes_only_dead(self, graph):
        live = graph.new_object(10)
        graph.root_persistent(live)
        dead = graph.new_object(30)
        count, collected = graph.sweep(graph.reachable())
        assert count == 1
        assert collected == 30
        assert live in graph.objects
        assert dead not in graph.objects

    def test_sweep_clears_dangling_weak_roots(self, graph):
        oid = graph.new_object(10)
        graph.root_weak(oid)
        graph.sweep(graph.reachable(include_weak=False))
        assert graph.weak_roots == set()

    def test_sweep_is_idempotent(self, graph):
        graph.root_persistent(graph.new_object(10))
        graph.new_object(10)
        graph.sweep(graph.reachable())
        count, collected = graph.sweep(graph.reachable())
        assert count == 0
        assert collected == 0

    def test_total_bytes_counts_garbage(self, graph):
        graph.new_object(100)
        oid = graph.new_object(50)
        graph.root_persistent(oid)
        assert graph.total_bytes() == 150
        assert graph.live_bytes() == 50
