"""Indexed dispatch vs the linear reference bus.

The indexed :class:`EventBus` must be observationally identical to the
test-only :class:`~tests.oracles.LinearEventBus`: same handlers, same
order, same summed costs -- under subscribes, unsubscribes, wildcard
subscriptions, and re-entrant publishes.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.bus import EventBus
from repro.sim.events import Event
from tests.oracles import LinearEventBus

KINDS = ("step", "sample", "request-arrival", "gc", "reclaim-done")


def _mirror_buses():
    return LinearEventBus(), EventBus()


class TestDifferential:
    def test_random_schedule_matches_linear_bus(self):
        """Drive both buses through the same randomized subscribe /
        unsubscribe / publish schedule; delivery logs and publish sums
        must be identical."""
        rng = random.Random(1234)
        linear, indexed = _mirror_buses()
        logs = ([], [])
        subs = ([], [])  # parallel subscription handles

        def make_handler(log, tag):
            def handler(event):
                log.append((tag, event.kind, event.node, event.seq))
                return 0.25

            return handler

        tag = 0
        for _ in range(400):
            action = rng.random()
            if action < 0.30:
                kinds = None if rng.random() < 0.3 else tuple(
                    rng.sample(KINDS, rng.randint(1, 3))
                )
                node = None if rng.random() < 0.5 else rng.randrange(3)
                for i, bus in enumerate((linear, indexed)):
                    subs[i].append(
                        bus.subscribe(make_handler(logs[i], tag), kinds=kinds, node=node)
                    )
                tag += 1
            elif action < 0.45 and subs[0]:
                victim = rng.randrange(len(subs[0]))
                for i, bus in enumerate((linear, indexed)):
                    bus.unsubscribe(subs[i].pop(victim))
            else:
                kind = rng.choice(KINDS)
                node = rng.randrange(3)
                totals = [
                    bus.publish(Event(kind, 1.0, node, {}))
                    for bus in (linear, indexed)
                ]
                assert totals[0] == totals[1]
        assert logs[0] == logs[1]
        assert len(logs[0]) > 100  # the schedule actually exercised dispatch

    def test_reentrant_publish_matches_linear_bus(self):
        linear, indexed = _mirror_buses()
        logs = ([], [])
        for i, bus in enumerate((linear, indexed)):
            log = logs[i]

            def outer(event, bus=bus, log=log):
                log.append(("outer", event.kind, event.seq))
                if event.kind == "step":
                    bus.publish(Event("gc", event.time, event.node, {}))

            def inner(event, log=log):
                log.append(("inner", event.kind, event.seq))

            bus.subscribe(outer)
            bus.subscribe(inner, kinds=("gc",))
            bus.publish(Event("step", 0.0, 0, {}))
        assert logs[0] == logs[1]
        # run-to-completion: the nested gc is delivered after the step.
        assert [entry[1] for entry in logs[0]] == ["step", "gc", "gc"]


class TestCompaction:
    def test_unsubscribe_empties_buckets(self):
        bus = EventBus()
        sub = bus.subscribe(lambda event: None, kinds=("step",), node=1)
        assert bus.has_subscribers("step", 1)
        bus.unsubscribe(sub)
        assert not bus.has_subscribers("step", 1)
        assert bus._buckets == {}
        assert sub not in bus._subscriptions

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        sub = bus.subscribe(lambda event: None, kinds=("step",))
        bus.unsubscribe(sub)
        bus.unsubscribe(sub)  # second call is a no-op, not an error
        assert bus._buckets == {}

    def test_handler_unsubscribing_mid_dispatch(self):
        """A handler removing itself (or a later handler) during dispatch:
        both buses skip the dead handler via the ``active`` flag."""
        for factory in (LinearEventBus, EventBus):
            bus = factory()
            seen = []
            subs = {}

            def first(event):
                seen.append("first")
                bus.unsubscribe(subs["second"])

            def second(event):
                seen.append("second")

            subs["first"] = bus.subscribe(first, kinds=("step",))
            subs["second"] = bus.subscribe(second, kinds=("step",))
            bus.publish(Event("step", 0.0, 0, {}))
            bus.publish(Event("step", 0.0, 0, {}))
            assert seen == ["first", "first"], factory.__name__


class TestLazyPublish:
    @pytest.mark.parametrize("factory", (LinearEventBus, EventBus))
    def test_skipped_publish_still_burns_seq(self, factory):
        bus = factory()
        seen = []
        bus.subscribe(lambda event: seen.append(event.seq), kinds=("sample",))
        built = []

        def costly():
            built.append(True)
            return {"x": 1}

        bus.publish_lazy("step", 0.0, 0, costly)  # nobody listens
        bus.publish_lazy("sample", 1.0, 0, costly)
        assert built == [True]  # the unheard event was never built
        assert seen == [1]  # ...but it consumed seq 0
