"""Eviction-policy determinism: the heap path vs the linear scan.

Every policy ranks victims by a ``(key, id)`` tuple, so ties -- equal
recency, equal greedy-dual priority, equal keep-alive deadline -- resolve
identically whichever selection path runs and however the candidate list
happens to be ordered.  These tests craft exact ties and mixed
populations and require both paths to agree on the victim.  The
candidate container selects the path: the platform's versioned frozen
list takes the heap, a plain list takes the scan.
"""

from __future__ import annotations

import pytest

from repro.faas.instance import FunctionInstance
from repro.faas.keepalive import (
    GreedyDualSizeFrequency,
    HybridHistogramKeepAlive,
    LruEviction,
)
from repro.faas.platform import VersionedList
from repro.workloads.registry import get_definition

POLICIES = (LruEviction, GreedyDualSizeFrequency, HybridHistogramKeepAlive)


def _frozen(name, used_at=0.0, frozen_at=None):
    instance = FunctionInstance(get_definition(name).stages[0])
    instance.boot()
    instance.invoke(used_at)
    instance.freeze(frozen_at if frozen_at is not None else used_at + 1.0)
    return instance


def _versioned(instances):
    candidates = VersionedList()
    candidates.extend(instances)
    candidates.adds = len(candidates)
    candidates.version = len(candidates)
    return candidates


def _choose(policy_factory, instances, now, heap):
    """One victim query on a fresh policy via the requested path."""
    candidates = _versioned(instances) if heap else list(instances)
    return policy_factory().choose_victim(candidates, now)


@pytest.mark.parametrize("policy_factory", POLICIES)
class TestTieBreaks:
    def test_exact_ties_resolve_by_id_on_both_paths(self, policy_factory):
        """Twin instances (same function, same timestamps) are an exact
        ranking tie for every policy; both paths must pick the lower id."""
        twins = [_frozen("time", used_at=5.0, frozen_at=6.0) for _ in range(3)]
        lowest = min(twins, key=lambda i: i.id)
        try:
            for ordering in (twins, list(reversed(twins))):
                linear = _choose(policy_factory, ordering, now=10.0, heap=False)
                heap = _choose(policy_factory, ordering, now=10.0, heap=True)
                assert linear is lowest, ordering
                assert heap is lowest, ordering
        finally:
            for twin in twins:
                twin.destroy()

    def test_mixed_population_agrees_across_paths(self, policy_factory):
        """A non-tied population: the heap and the linear scan must still
        name the same victim, independent of list order."""
        population = [
            _frozen("time", used_at=3.0),
            _frozen("fft", used_at=1.0),
            _frozen("sort", used_at=7.0),
        ]
        try:
            for ordering in (population, list(reversed(population))):
                linear = _choose(policy_factory, ordering, now=20.0, heap=False)
                heap = _choose(policy_factory, ordering, now=20.0, heap=True)
                assert linear is heap, ordering
        finally:
            for instance in population:
                instance.destroy()


class TestHybridProactive:
    def test_proactive_victims_match_across_paths(self):
        """Expired keep-alive windows: both paths return the same victims
        in the same (id-sorted) order."""
        instances = [
            _frozen("time", used_at=0.0, frozen_at=1.0),
            _frozen("time", used_at=0.0, frozen_at=2.0),
            _frozen("fft", used_at=0.0, frozen_at=1.0),
        ]

        def build():
            policy = HybridHistogramKeepAlive(min_window=5.0)
            # Tight inter-arrivals give "time" a short window; "fft" stays
            # at the conservative max window and must not be evicted.
            for t in (0.0, 5.0, 10.0, 15.0):
                policy.on_request("time", t)
            return policy

        try:
            linear = build().proactive_victims(list(instances), now=500.0)
            heap = build().proactive_victims(_versioned(instances), now=500.0)
            assert [i.id for i in linear] == [i.id for i in heap]
            assert [i.spec.name for i in linear] == ["time", "time"]
        finally:
            for instance in instances:
                instance.destroy()
