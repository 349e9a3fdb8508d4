"""Test-only reference implementations: the differential oracles.

Production runs one implementation of each hot structure: the indexed
event bus, the platform's incremental USS aggregates and versioned
frozen list, the runtimes' measurement caches, and cohort allocation.
The obviously correct versions they replaced live here, where the
tests that pin the fast structures to them can reach them:

* :class:`LinearEventBus` -- every publish scans the one flat
  subscription list;
* :func:`reference_paths` -- installs the summing, uncached and scalar
  paths on the platform and the runtimes, plus the linear bus on every
  kernel built afterwards.  With it installed ``frozen_instances``
  returns a plain list, which by itself sends the eviction policies and
  Desiccant's ranking down their linear, uncached paths.

A run under :func:`reference_paths` must stream the same event trace,
byte for byte, as the same run in production form
(``tests/trace/test_reference_parity.py``).
"""

from __future__ import annotations

from typing import List

import repro.sim.kernel
from repro.faas.instance import FunctionInstance, InstanceState
from repro.faas.platform import FaasPlatform
from repro.mem.accounting import measure, measure_mapping
from repro.runtime.base import ManagedRuntime
from repro.sim.bus import EventBus, Subscription
from repro.sim.events import Event


def _matches(subscription: Subscription, kind: str, node: int) -> bool:
    if not subscription.active:
        return False
    if subscription.kinds is not None and kind not in subscription.kinds:
        return False
    return subscription.node is None or subscription.node == node


class LinearEventBus(EventBus):
    """Synchronous publish/subscribe by flat scan (reference).

    Every publish scans the full subscription list.  O(subscriptions)
    per event, trivially correct -- the behavior :class:`EventBus` must
    reproduce bit for bit.  Sequencing and the run-to-completion pending
    queue are inherited; only subscription bookkeeping and matching
    differ.
    """

    def subscribe(self, handler, kinds=None, node=None) -> Subscription:
        subscription = Subscription(
            handler,
            frozenset(kinds) if kinds is not None else None,
            node,
            self._next_order(),
        )
        self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        subscription.active = False
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)

    def has_subscribers(self, kind: str, node: int = 0) -> bool:
        return any(_matches(s, kind, node) for s in self._subscriptions)

    def _dispatch(self, event: Event) -> float:
        total = 0.0
        for subscription in list(self._subscriptions):
            if _matches(subscription, event.kind, event.node):
                result = subscription.handler(event)
                if isinstance(result, (int, float)) and not isinstance(result, bool):
                    total += result
        return total


# ------------------------------------------------------- platform paths


def _untracked(self: FaasPlatform, instance: FunctionInstance) -> None:
    """No incremental bookkeeping: every query below sums afresh."""


def _frozen_instances(self: FaasPlatform) -> List[FunctionInstance]:
    return [i for i in self.all_instances() if i.state is InstanceState.FROZEN]


def _frozen_bytes(self: FaasPlatform) -> int:
    return sum(i.uss() for i in self.frozen_instances())


def _used_bytes(self: FaasPlatform) -> int:
    return sum(i.uss() for i in self.all_instances())


def _frozen_capacity_bytes(self: FaasPlatform) -> int:
    active = sum(
        i.uss()
        for i in self.all_instances()
        if i.state in (InstanceState.RUNNING, InstanceState.IDLE)
    )
    return max(1, self.capacity_bytes - self.config.instance_memory - active)


def _eager_emit(self: FaasPlatform, kind: str, **data) -> float:
    return self.bus.publish(Event(kind, self.now, self.node_id, data))


# -------------------------------------------------------- runtime paths


def _uncached_uss(self: ManagedRuntime) -> int:
    return measure(self.space).uss


def _uncached_heap_resident_bytes(self: ManagedRuntime) -> int:
    return sum(measure_mapping(m).rss for m in self._heap_mappings())


def scalar_alloc_cohort(
    self: ManagedRuntime, count: int, unit: int, scope: str = "frame"
) -> List[int]:
    """:meth:`ManagedRuntime.alloc_cohort` as ``count`` scalar allocs."""
    self._check_booted()
    return [self.alloc(unit, scope=scope) for _ in range(count)]


def reference_paths(monkeypatch) -> None:
    """Install every reference path through ``monkeypatch``.

    The platform and runtime paths are patched on their classes, so they
    hold for every call while the patch does; a kernel picks its bus when
    it is built.  Undo the patch (end of test, or leave a
    ``MonkeyPatch.context()``) before running the production side of a
    comparison.
    """
    monkeypatch.setattr(repro.sim.kernel, "EventBus", LinearEventBus)
    for name, reference in (
        ("_register_instance", _untracked),
        ("_unregister_instance", _untracked),
        ("frozen_instances", _frozen_instances),
        ("frozen_bytes", _frozen_bytes),
        ("used_bytes", _used_bytes),
        ("frozen_capacity_bytes", _frozen_capacity_bytes),
        ("_emit", _eager_emit),
    ):
        monkeypatch.setattr(FaasPlatform, name, reference)
    for name, reference in (
        ("uss", _uncached_uss),
        ("heap_resident_bytes", _uncached_heap_resident_bytes),
        ("alloc_cohort", scalar_alloc_cohort),
    ):
        monkeypatch.setattr(ManagedRuntime, name, reference)
