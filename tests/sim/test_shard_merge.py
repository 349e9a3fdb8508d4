"""Tests for the generic sharding layer (repro.sim.shard).

Covers the epoch grid, the canonical ``(t, node, seq)`` trace merge and
its partition-invariance property, the worker-pool protocol (process and
inline twins), and the :meth:`~repro.sim.rng.RngStream.split` derivation
the shard workers rely on for per-component streams.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.sim.rng import RngStream
from repro.sim.shard import (
    InlineShardPool,
    ShardPool,
    ShardWorkerError,
    epoch_horizons,
    make_pool,
    merge_trace_files,
    merge_trace_lines,
    run_window,
    sha256_lines,
)

# ------------------------------------------------------------------ epochs


class TestEpochHorizons:
    def test_grid_covers_the_window(self):
        assert epoch_horizons(0.0, 20.0, 5.0) == [5.0, 10.0, 15.0, 20.0]

    def test_partial_tail_gets_its_own_epoch(self):
        assert epoch_horizons(0.0, 12.0, 5.0) == [5.0, 10.0, 15.0]

    def test_offset_start(self):
        assert epoch_horizons(60.0, 70.0, 5.0) == [65.0, 70.0]

    def test_empty_window_still_yields_one_epoch(self):
        assert epoch_horizons(10.0, 10.0, 5.0) == [15.0]
        assert epoch_horizons(10.0, 3.0, 5.0) == [15.0]

    def test_index_computed_not_accumulated(self):
        # 0.1 is not exactly representable: summing it drifts, indexing
        # does not.  Every horizon must equal start + (k+1) * epoch.
        horizons = epoch_horizons(0.0, 10.0, 0.1)
        assert all(h == (k + 1) * 0.1 for k, h in enumerate(horizons))

    def test_nonpositive_epoch_rejected(self):
        with pytest.raises(ValueError):
            epoch_horizons(0.0, 10.0, 0.0)


# ------------------------------------------------------------------- merge


def _record(t, node, seq, detail="x"):
    return json.dumps(
        {"t": t, "node": node, "seq": seq, "detail": detail}, sort_keys=True
    )


def _serial_stream():
    """A synthetic global trace with heavy same-time collisions."""
    lines = []
    seqs = {}
    for step in range(40):
        t = float(step // 4)  # four events share every timestamp
        for node in range(5):
            if (step + node) % 3 == 0:
                continue
            seq = seqs.get(node, 0)
            seqs[node] = seq + 1
            lines.append(_record(t, node, seq, detail=f"s{step}"))
    # Global serial order: time-major, node then seq breaking ties.
    lines.sort(key=lambda line: (
        json.loads(line)["t"], json.loads(line)["node"], json.loads(line)["seq"]
    ))
    return lines


class TestMerge:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_merge_is_partition_invariant(self, shards):
        """Split per node across K shard streams, merge: byte-identical
        to the serial stream for every shard count."""
        serial = _serial_stream()
        streams = [[] for _ in range(shards)]
        for line in serial:
            streams[json.loads(line)["node"] % shards].append(line)
        merged = list(merge_trace_lines(streams))
        assert merged == serial
        assert sha256_lines(merged) == sha256_lines(serial)

    def test_ties_break_on_node_then_seq(self):
        a = [_record(1.0, 2, 0), _record(1.0, 2, 1)]
        b = [_record(1.0, 0, 0), _record(1.0, 3, 0)]
        merged = [json.loads(line) for line in merge_trace_lines([a, b])]
        assert [(r["node"], r["seq"]) for r in merged] == [
            (0, 0), (2, 0), (2, 1), (3, 0)
        ]

    def test_merge_of_merged_streams_is_stable(self):
        serial = _serial_stream()
        halves = [serial[: len(serial) // 2], serial[len(serial) // 2 :]]
        # A previously merged stream is itself sorted, so re-merging is a
        # no-op -- the property merge_trace_files relies on.
        assert list(merge_trace_lines(halves)) == serial

    def test_sha256_lines_matches_manual_digest(self):
        lines = ["alpha", "beta"]
        count, digest = sha256_lines(lines)
        assert count == 2
        assert digest == hashlib.sha256(b"alpha\nbeta\n").hexdigest()

    def test_merge_trace_files_roundtrip(self, tmp_path):
        serial = _serial_stream()
        paths = []
        for shard in range(3):
            path = tmp_path / f"node{shard}.jsonl"
            path.write_text(
                "".join(
                    line + "\n"
                    for line in serial
                    if json.loads(line)["node"] % 3 == shard
                )
            )
            paths.append(path)
        out = tmp_path / "merged.jsonl"
        events, digest = merge_trace_files(paths, out)
        assert events == len(serial)
        # The digest covers exactly the bytes written.
        assert digest == hashlib.sha256(out.read_bytes()).hexdigest()
        assert out.read_text() == "".join(line + "\n" for line in serial)
        # Digest-only mode agrees without writing anything.
        assert merge_trace_files(paths) == (events, digest)


# -------------------------------------------------------------------- pool


class EchoHost:
    """Minimal shard-host protocol implementation for pool tests."""

    def __init__(self, spec):
        self.shard, self.fail_on_advance = spec
        self.items = []
        self.marks = []
        self.clock = 0.0

    def begin_epoch(self, payload):
        self.items.extend(payload)

    def advance(self, until):
        if self.fail_on_advance:
            raise RuntimeError("shard-host boom")
        if until is not None:
            self.clock = until

    def epoch_report(self, horizon):
        return {"shard": self.shard, "clock": self.clock, "items": list(self.items)}

    def mark(self, name):
        self.marks.append(name)

    def finalize(self):
        return {"shard": self.shard, "items": list(self.items), "marks": self.marks}


class WindowHost:
    """Shard host exercising the optional window hooks.

    Spec is ``(shard, fail_at)``: advancing to horizon ``fail_at``
    raises, which is how the mid-window death tests plant a failure on a
    specific epoch of a multi-epoch grant.
    """

    def __init__(self, spec):
        self.shard, self.fail_at = spec
        self.preambles = []
        self.begins = []
        self.flushes = []
        self.clock = 0.0

    def window_begin(self, preamble):
        self.preambles.append(preamble)

    def begin_epoch(self, payload):
        self.begins.append(list(payload))

    def advance(self, until):
        if self.fail_at is not None and until == self.fail_at:
            raise RuntimeError(f"window-host boom at {until}")
        if until is not None:
            self.clock = until

    def epoch_end(self, horizon):
        self.flushes.append(horizon)

    def epoch_report(self, horizon):
        return {
            "shard": self.shard,
            "clock": self.clock,
            "preambles": list(self.preambles),
            "flushes": list(self.flushes),
        }

    def mark(self, name):
        pass

    def finalize(self):
        return {"shard": self.shard}


@pytest.mark.parametrize("processes", [False, True])
class TestPoolProtocol:
    def test_epoch_mark_finish_roundtrip(self, processes):
        pool = make_pool(EchoHost, [(0, False), (1, False)], processes=processes)
        assert isinstance(pool, ShardPool if processes else InlineShardPool)
        assert len(pool) == 2
        try:
            reports = pool.window([5.0], [[["a"]], [["b", "c"]]])
            assert [r["shard"] for r in reports] == [0, 1]
            assert [r["clock"] for r in reports] == [5.0, 5.0]
            assert reports[1]["items"] == ["b", "c"]
            pool.mark("reset")
            results = pool.finish()
            assert [r["items"] for r in results] == [["a"], ["b", "c"]]
            assert all(r["marks"] == ["reset"] for r in results)
        finally:
            pool.close()

    def test_payload_count_must_match_shards(self, processes):
        pool = make_pool(EchoHost, [(0, False)], processes=processes)
        try:
            with pytest.raises(ValueError, match="one payload batch per shard"):
                pool.window([1.0], [[[]], [[]]])
        finally:
            pool.close()

    def test_empty_specs_rejected(self, processes):
        with pytest.raises(ValueError, match="at least one shard spec"):
            make_pool(EchoHost, [], processes=processes)

    def test_window_runs_all_epochs_in_one_barrier(self, processes):
        pool = make_pool(EchoHost, [(0, False), (1, False)], processes=processes)
        try:
            before = pool.round_trips
            reports = pool.window(
                [5.0, 10.0, 15.0],
                [[["a"], [], ["b"]], [["c"], ["d"], []]],
            )
            # One barrier exchange for the whole window, on both pools.
            assert pool.round_trips == before + 1
            assert [r["clock"] for r in reports] == [15.0, 15.0]
            assert reports[0]["items"] == ["a", "b"]
            assert reports[1]["items"] == ["c", "d"]
        finally:
            pool.close()

    def test_window_payloads_must_match_epochs(self, processes):
        pool = make_pool(EchoHost, [(0, False)], processes=processes)
        try:
            with pytest.raises(
                (ValueError, ShardWorkerError), match="per window epoch"
            ):
                pool.window([1.0, 2.0], [[["a"]]])
        finally:
            pool.close()

    def test_preamble_reaches_hosts_that_accept_it(self, processes):
        pool = make_pool(WindowHost, [(0, None)], processes=processes)
        try:
            reports = pool.window(
                [1.0, 2.0], [[[], []]], preambles=[{"fn": "body"}]
            )
            assert reports[0]["preambles"] == [{"fn": "body"}]
            # epoch_end ran per epoch, not once per window.
            assert reports[0]["flushes"] == [1.0, 2.0]
        finally:
            pool.close()

    def test_preamble_is_harmless_without_window_begin(self, processes):
        # EchoHost implements neither window_begin nor epoch_end: the
        # hooks are optional, a preamble to such a host is ignored.
        pool = make_pool(EchoHost, [(0, False)], processes=processes)
        try:
            reports = pool.window([1.0], [[["x"]]], preambles=[{"fn": 1}])
            assert reports[0]["items"] == ["x"]
        finally:
            pool.close()


class TestRunWindow:
    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="at least one epoch"):
            run_window(EchoHost((0, False)), [], [])

    def test_skips_begin_epoch_for_empty_payloads(self):
        host = WindowHost((0, None))
        run_window(host, [1.0, 2.0], [[], ["a"]])
        assert host.begins == [["a"]]


class TestWorkerErrors:
    @pytest.mark.parametrize("processes", [False, True])
    def test_worker_exception_carries_traceback(self, processes):
        pool = make_pool(EchoHost, [(0, False), (1, True)], processes=processes)
        try:
            with pytest.raises(ShardWorkerError) as caught:
                pool.window([1.0], [[[]], [[]]])
            assert caught.value.shard == 1
            assert "shard-host boom" in caught.value.worker_traceback
        finally:
            pool.close()

    @pytest.mark.parametrize("processes", [False, True])
    def test_mid_window_death_names_the_failing_epoch(self, processes):
        """A worker dying on epoch 2 of a 4-epoch window grant must
        surface *that epoch's* traceback and position, not the window."""
        pool = make_pool(WindowHost, [(0, 30.0)], processes=processes)
        try:
            with pytest.raises(ShardWorkerError) as caught:
                pool.window(
                    [10.0, 20.0, 30.0, 40.0], [[["a"], ["b"], ["c"], ["d"]]]
                )
            error = caught.value
            assert error.shard == 0
            assert error.epoch_index == 2
            assert error.horizon == 30.0
            assert "window-host boom at 30.0" in error.worker_traceback
            assert "window epoch 2" in str(error)
            assert "horizon 30.0" in str(error)
        finally:
            pool.close()

    def test_error_before_any_window_has_no_epoch_context(self):
        pool = ShardPool(EchoHost, [(0, True)])
        try:
            with pytest.raises(ShardWorkerError) as caught:
                pool.window([1.0], [[[]]])
            # A one-epoch window still pinpoints epoch 0.
            assert caught.value.epoch_index == 0
        finally:
            pool.close()

    def test_close_is_idempotent(self):
        pool = ShardPool(EchoHost, [(0, False)])
        pool.close()
        pool.close()


class TestPipeAccounting:
    def test_process_pool_counts_framed_bytes(self):
        pool = ShardPool(EchoHost, [(0, False)])
        try:
            pool.window([1.0, 2.0], [[["a"], ["b"]]])
            assert pool.pipe_bytes_sent > 0
            assert pool.pipe_bytes_received > 0
            assert pool.pipe_bytes == (
                pool.pipe_bytes_sent + pool.pipe_bytes_received
            )
        finally:
            pool.close()

    def test_batching_ships_fewer_bytes_than_per_epoch_grants(self):
        """The tentpole in miniature: the same 8 epochs cost less wire
        when granted as one window than as 8 singletons."""
        horizons = [float(k + 1) for k in range(8)]
        payloads = [[f"item{k}"] for k in range(8)]

        batched = ShardPool(EchoHost, [(0, False)])
        try:
            batched.window(horizons, [payloads])
            batched_bytes = batched.pipe_bytes
            batched_trips = batched.round_trips
        finally:
            batched.close()

        singletons = ShardPool(EchoHost, [(0, False)])
        try:
            for horizon, payload in zip(horizons, payloads):
                singletons.window([horizon], [[payload]])
            single_bytes = singletons.pipe_bytes
            single_trips = singletons.round_trips
        finally:
            singletons.close()

        assert batched_trips * 8 == single_trips
        assert batched_bytes < single_bytes

    def test_inline_pool_reports_zero_pipe_bytes(self):
        pool = InlineShardPool(EchoHost, [(0, False)])
        pool.window([1.0], [[["a"]]])
        assert pool.pipe_bytes == 0
        assert pool.round_trips == 1


# --------------------------------------------------------------- rng split


class TestRngSplit:
    def test_split_depends_only_on_names(self):
        a = RngStream(7, "cluster").split("node3")
        b = RngStream(7, "cluster").split("node3")
        assert [a.random() for _ in range(8)] == [b.random() for _ in range(8)]

    def test_split_consumes_no_parent_draws(self):
        plain = RngStream(7, "cluster")
        splitting = RngStream(7, "cluster")
        splitting.split("node0")
        splitting.split("node1")
        assert [plain.random() for _ in range(8)] == [
            splitting.random() for _ in range(8)
        ]

    def test_split_is_order_and_sibling_independent(self):
        """The draws of child X never depend on which siblings exist or
        when they were split -- the property shard workers rely on."""
        parent = RngStream(7, "cluster")
        early = parent.split("node2")
        early_draws = [early.random() for _ in range(8)]

        other = RngStream(7, "cluster")
        for label in ("node9", "node4", "node0"):
            drawn = other.split(label)
            drawn.random()
        late = other.split("node2")
        assert [late.random() for _ in range(8)] == early_draws

    def test_distinct_labels_diverge(self):
        parent = RngStream(7, "cluster")
        assert parent.split("node0").random() != parent.split("node1").random()

    def test_nested_split_names_compose(self):
        child = RngStream(7, "cluster").split("node3")
        assert child.name == "cluster/node3"
        grand = child.split("gc")
        assert grand.name == "cluster/node3/gc"
        direct = RngStream(7, "cluster/node3/gc")
        assert [grand.random() for _ in range(4)] == [
            direct.random() for _ in range(4)
        ]
