"""Pickle-safety regressions for the kernel pieces checkpoints carry.

Each class here pins one ``__getstate__``/``__reduce__`` contract that a
checkpoint restore depends on: counters resume at their exact positions,
derived caches are dropped and rebuilt rather than shipped stale, and
streamed outputs rewrite to byte-identical files.  These are the latent
gaps that byte-identity tests would only catch indirectly (and late) --
pin them at the unit level so a regression names the broken component.
"""

from __future__ import annotations

import pickle

import pytest

from repro.sim import checkpoint
from repro.sim.bus import EventBus
from repro.sim.events import Event
from repro.sim.queue import EventQueue
from repro.sim.rng import RngStream
from repro.trace.archive import ArchiveWriter
from repro.faas.platform import VersionedList
from tests.oracles import LinearEventBus


def _copy(obj):
    return pickle.loads(pickle.dumps(obj, protocol=checkpoint.PICKLE_PROTOCOL))


# ------------------------------------------------------------- RngStream


class TestRngStream:
    def test_pickle_preserves_identity_and_position(self):
        stream = RngStream(1234, "kernel/arrivals")
        drawn = [stream.random() for _ in range(10)]
        clone = _copy(stream)
        assert clone.master_seed == 1234
        assert clone.name == "kernel/arrivals"
        # Both continue the sequence from draw 10, in lockstep.
        assert [clone.random() for _ in range(5)] == [
            stream.random() for _ in range(5)
        ]
        assert drawn  # the prefix really was consumed before pickling

    def test_restart_still_works_after_restore(self):
        stream = RngStream(7, "svc")
        first = [stream.random() for _ in range(4)]
        clone = _copy(stream)
        clone.restart()
        assert [clone.random() for _ in range(4)] == first

    def test_split_is_stable_across_restore(self):
        # split() depends only on (master_seed, name/label); a restored
        # stream must hand out the same children it would have live.
        stream = RngStream(99, "root")
        live_child = [stream.split("what-if").random() for _ in range(3)]
        clone = _copy(stream)
        restored_child = [clone.split("what-if").random() for _ in range(3)]
        assert restored_child == live_child


# ------------------------------------------------------------ EventQueue


_FIRED = []


def _record(payload):
    _FIRED.append(payload)


class TestEventQueue:
    def test_pickle_preserves_pop_order_and_seq(self):
        queue = EventQueue()
        queue.push(2.0, _record, "late")
        queue.push(1.0, _record, "early")
        queue.push(1.0, _record, "early-but-second")
        clone = _copy(queue)
        order = [clone.pop().payload for _ in range(3)]
        assert order == ["early", "early-but-second", "late"]
        # The insertion counter resumes where it left off: a post-restore
        # push at an existing timestamp still sorts after history.
        assert clone._seq == queue._seq == 3
        event = clone.push(1.0, _record, "post-restore")
        assert event.seq == 3

    def test_cancellation_survives_pickling(self):
        queue = EventQueue()
        keep = queue.push(1.0, _record, "keep")
        queue.push(1.5, _record, "drop").cancel()
        clone = _copy(queue)
        assert len(clone) == 1
        assert clone.pop().payload == "keep"
        assert clone.pop() is None
        assert keep.payload == "keep"

    def test_next_time_after_restore(self):
        queue = EventQueue()
        queue.push(3.25, _record)
        assert _copy(queue).next_time() == 3.25


# -------------------------------------------------------------- EventBus


_CALLS = []


def _observer_a(event: Event) -> float:
    _CALLS.append(("a", event.kind, event.seq))
    return 1.0


def _observer_b(event: Event) -> float:
    _CALLS.append(("b", event.kind, event.seq))
    return 0.25


class TestEventBusState:
    def _warmed_bus(self) -> EventBus:
        bus = EventBus()
        bus.subscribe(_observer_a, kinds=["tick"])
        bus.subscribe(_observer_b)  # wildcard, subscribed second
        bus.publish(Event("tick", 0.0, 0, {}))
        return bus

    def test_dispatch_cache_is_dropped_not_shipped(self):
        bus = self._warmed_bus()
        assert bus._dispatch_cache  # warmed by the publish above
        assert bus.__getstate__()["_dispatch_cache"] == {}
        clone = _copy(bus)
        assert clone._dispatch_cache == {}

    def test_restored_bus_dispatches_in_subscription_order(self):
        clone = _copy(self._warmed_bus())
        del _CALLS[:]
        total = clone.publish(Event("tick", 1.0, 0, {}))
        assert total == pytest.approx(1.25)
        assert [name for name, _, _ in _CALLS] == ["a", "b"]
        # The cache rebuilt from the buckets on first use.
        assert clone._dispatch_cache

    def test_seq_and_order_counters_resume(self):
        bus = self._warmed_bus()
        clone = _copy(bus)
        assert clone._seq == bus._seq == 1
        assert clone._order == bus._order == 2
        event = Event("tick", 2.0, 0, {})
        clone.publish(event)
        assert event.seq == 1

    def test_indexed_and_linear_bus_agree_after_restore(self):
        del _CALLS[:]
        linear = LinearEventBus()
        linear.subscribe(_observer_a, kinds=["tick"])
        linear.subscribe(_observer_b)
        linear.publish(Event("tick", 0.0, 0, {}))
        reference = list(_CALLS)

        del _CALLS[:]
        clone = _copy(self._warmed_bus())
        del _CALLS[:]
        clone._seq = 0  # align numbering with the fresh linear bus
        clone.publish(Event("tick", 0.0, 0, {}))
        assert _CALLS == reference


# --------------------------------------------------------- VersionedList


class TestVersionedList:
    def test_reduce_preserves_counters_and_contents(self):
        frozen = VersionedList()
        frozen.extend(["i1", "i2"])
        frozen.version = 7
        frozen.adds = 5
        frozen.state_version = 11
        clone = _copy(frozen)
        assert list(clone) == ["i1", "i2"]
        assert isinstance(clone, VersionedList)
        assert (clone.version, clone.adds, clone.state_version) == (7, 5, 11)


# ------------------------------------------------------ global counters


class TestCounterCapture:
    def test_capture_is_a_nondestructive_peek(self):
        import repro.faas.platform as platform_mod

        values = checkpoint.capture_counters()
        peeked = values["faas.platform._request_ids"]
        # The capture re-armed the counter at the peeked value: the next
        # live draw is exactly what it would have been without it.
        assert next(platform_mod._request_ids) == peeked
        checkpoint.restore_counters(values)

    def test_restore_rearms_every_site(self):
        import repro.faas.instance as instance_mod

        values = checkpoint.capture_counters()
        before = values["faas.instance._instance_ids"]
        next(instance_mod._instance_ids)  # perturb
        checkpoint.restore_counters(values)
        assert next(instance_mod._instance_ids) == before
        checkpoint.restore_counters(values)

    def test_snapshot_world_roundtrip_carries_counters(self):
        import repro.mem.vmm as vmm_mod

        values = checkpoint.capture_counters()
        blob = checkpoint.snapshot_world({"marker": 42})
        next(vmm_mod._mapping_ids)  # drift past the snapshot point
        world = checkpoint.restore_world(blob)
        assert world == {"marker": 42}
        assert next(vmm_mod._mapping_ids) == values["mem.vmm._mapping_ids"]
        checkpoint.restore_counters(values)


# -------------------------------------------------------- archive writer


class TestArchiveWriterState:
    LINES = [
        (0.5, 0, '{"seq":0,"kind":"x"}'),
        (1.5, 0, '{"seq":1,"kind":"y"}'),
        (2.5, 0, '{"seq":2,"kind":"z"}'),  # new bucket: rolls the segment
        (3.0, 0, '{"seq":3,"kind":"w"}'),
    ]

    def _fill(self, writer: ArchiveWriter, lines) -> None:
        for item in lines:
            writer.add_many([item])

    def test_open_segment_rewrite_is_byte_identical(self, tmp_path):
        straight = ArchiveWriter(tmp_path / "straight", bucket_seconds=2.0)
        self._fill(straight, self.LINES)
        straight.close()

        interrupted = ArchiveWriter(tmp_path / "interrupted", bucket_seconds=2.0)
        self._fill(interrupted, self.LINES[:3])  # mid-open-segment
        blob = pickle.dumps(interrupted, protocol=checkpoint.PICKLE_PROTOCOL)
        restored = pickle.loads(blob)  # rewrites the open segment on unpickle
        self._fill(restored, self.LINES[3:])
        restored.close()

        names = sorted(
            p.name for p in (tmp_path / "straight").glob("seg-*")
        )
        assert names  # the roll produced at least two segments
        assert names == sorted(
            p.name for p in (tmp_path / "interrupted").glob("seg-*")
        )
        for name in names:
            a = (tmp_path / "straight" / name).read_bytes()
            b = (tmp_path / "interrupted" / name).read_bytes()
            assert a == b, name

    def test_open_segment_pickles_its_payload_bytes(self, tmp_path):
        """An open segment pickles the payload it has written, recovered
        from its file and compressor, not a list of lines; the restored
        writer closes with the footers an uninterrupted writer returns."""
        straight = ArchiveWriter(tmp_path / "straight", bucket_seconds=2.0)
        self._fill(straight, self.LINES[:2])
        writer = ArchiveWriter(tmp_path / "arch", bucket_seconds=2.0)
        self._fill(writer, self.LINES[:2])
        state = writer._open[0].__getstate__()
        assert state["payload"] == b"".join(
            line.encode("utf-8") + b"\n" for _, _, line in self.LINES[:2]
        )
        assert "lines" not in state
        restored = pickle.loads(pickle.dumps(writer))
        writer._open[0].raw.close()  # the restored copy owns the file now
        assert restored.close() == straight.close()

