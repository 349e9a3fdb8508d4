"""Tests for the generic sharding layer (repro.sim.shard).

Covers the epoch grid, the canonical ``(t, node, seq)`` trace merge the
archive composes from per-shard writers and its partition-invariance
property, the worker-pool protocol (process and inline twins), and the
:meth:`~repro.sim.rng.RngStream.split` derivation the shard workers rely
on for per-component streams.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngStream
from repro.sim.shard import (
    InlineShardPool,
    ShardPool,
    ShardWorkerError,
    epoch_horizons,
    make_pool,
    run_window,
    sha256_lines,
)
from repro.trace.archive import ArchiveReader, ArchiveWriter, finalize_archive, pack
from repro.trace.encode import ID_KEYS, encode_line
from tests.oracles import reference_merge_trace_lines

# ------------------------------------------------------------------ epochs

# Arrival times in a bounded, float-friendly window.  allow_nan/inf off:
# the submission log is generated, never adversarial.
times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=600.0, allow_nan=False, allow_infinity=False),
    max_size=200,
)
epoch_strategy = st.floats(min_value=0.25, max_value=60.0, allow_nan=False)


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

    def test_tail_extends_by_whole_cells_past_the_last_arrival(self):
        assert epoch_horizons(0.0, 20.0, 5.0, [3.0, 20.0]) == [
            5.0, 10.0, 15.0, 20.0, 25.0
        ]
        assert epoch_horizons(0.0, 10.0, 5.0, [17.5]) == [5.0, 10.0, 15.0, 20.0]
        assert epoch_horizons(10.0, 10.0, 5.0, [10.0]) == [15.0]

    @given(times=times_strategy, epoch=epoch_strategy)
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, times, epoch):
        horizons = epoch_horizons(0.0, 600.0, epoch, times)
        assert horizons[0] > 0.0
        assert all(b > a for a, b in zip(horizons, horizons[1:]))

    @given(times=times_strategy, epoch=epoch_strategy)
    @settings(max_examples=200, deadline=None)
    def test_covers_every_arrival(self, times, epoch):
        """Every arrival lands strictly inside some epoch -- including one
        exactly at the phase end (the tail guarantee)."""
        start, end = 0.0, 600.0
        times = times + [end]
        horizons = epoch_horizons(start, end, epoch, times)
        assert horizons[-1] >= end
        assert horizons[-1] > max(times)
        # The arrivals only ever extend the plain grid's tail.
        grid = epoch_horizons(start, end, epoch)
        assert horizons[: len(grid)] == grid

    @given(times=times_strategy, epoch=epoch_strategy)
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_under_input_reordering(self, times, epoch):
        """The shard-count-independence property: every caller derives the
        same horizons from the same log in any order -- `==` on floats,
        not approx."""
        start, end = 0.0, 600.0
        a = epoch_horizons(start, end, epoch, times)
        b = epoch_horizons(start, end, epoch, sorted(times))
        c = epoch_horizons(start, end, epoch, list(reversed(times)))
        assert a == b == c


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


def _archive_merge(sources, bucket_seconds=1.0):
    """The archive's merge of ``sources``, each holding whole nodes: one
    writer per source fills one root, as shard workers do, and
    ``finalize_archive`` composes it.  Returns the composed lines, read
    from the flat trace written in the same pass, and the composed
    ``(events, sha256)``."""
    with tempfile.TemporaryDirectory(prefix="repro-merge-") as workdir:
        root, flat = Path(workdir) / "arc", Path(workdir) / "flat.jsonl"
        footers = []
        for lines in sources:
            writer = ArchiveWriter(root, bucket_seconds=bucket_seconds)
            records = [json.loads(line) for line in lines]
            writer.add_many(
                [(r["t"], r["node"], line) for r, line in zip(records, lines)]
            )
            footers.extend(writer.close()["segments"])
        composed = finalize_archive(
            root, bucket_seconds, footers=footers, event_trace_path=flat
        )
        return flat.read_text(encoding="utf-8").splitlines(), composed


class TestMerge:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_merge_is_partition_invariant(self, shards):
        """Split per node across K shard writers, compose: byte-identical
        to the serial stream for every shard count."""
        serial = _serial_stream()
        streams = [[] for _ in range(shards)]
        for line in serial:
            streams[json.loads(line)["node"] % shards].append(line)
        merged, composed = _archive_merge(streams)
        assert merged == serial
        assert composed == sha256_lines(serial)

    def test_ties_break_on_node_then_seq(self):
        a = [_record(1.0, 2, 0), _record(1.0, 2, 1)]
        b = [_record(1.0, 0, 0), _record(1.0, 3, 0)]
        merged = [json.loads(line) for line in _archive_merge([a, b])[0]]
        assert [(r["node"], r["seq"]) for r in merged] == [
            (0, 0), (2, 0), (2, 1), (3, 0)
        ]

    def test_merge_of_merged_streams_is_stable(self):
        """A composed trace is itself canonical: packed into a new
        archive at another bucket width, it composes to the same bytes."""
        serial = _serial_stream()
        halves = [[], []]
        for line in serial:
            halves[json.loads(line)["node"] % 2].append(line)
        merged, composed = _archive_merge(halves)
        with tempfile.TemporaryDirectory(prefix="repro-merge-") as workdir:
            flat = Path(workdir) / "merged.jsonl"
            flat.write_text("".join(line + "\n" for line in merged))
            assert pack(flat, Path(workdir) / "again", bucket_seconds=2.5) == composed
            again = ArchiveReader(Path(workdir) / "again")
            assert list(again.iter_window(verify=True)) == merged == serial

    @given(
        events=st.lists(
            st.tuples(
                # Few distinct times, so nodes tie on t; 1e-05 is spelled
                # without a fraction, so its lines take json.loads.
                st.sampled_from([0.0, 1e-05, 0.5, 1.25, 2.0, 3.0]),
                st.integers(min_value=0, max_value=5),
                st.text(max_size=6),
            ),
            max_size=80,
        ),
        sources=st.integers(min_value=1, max_value=4),
    )
    @example(
        events=[(0.5, 0, "a"), (0.5, 0, "b"), (0.5, 1, "c")], sources=2
    )
    @settings(max_examples=150, deadline=None)
    def test_merge_matches_json_loads_oracle(self, events, sources):
        """Encoded multi-node streams, split across writers by node:
        the archive's envelope-keyed merge emits the oracle's order,
        which is the canonical ``(t, node, seq)`` order."""
        seqs = {}
        records = []
        for t, node, note in sorted(events, key=lambda event: event[0]):
            seq = seqs.get(node, 0)
            seqs[node] = seq + 1
            maps = {key: {} for key in ID_KEYS}
            line = encode_line(seq, t, node, "step", {"note": note}, maps)
            records.append((t, node, seq, line))
        streams = [
            [r[3] for r in sorted(records) if r[1] % sources == shard]
            for shard in range(sources)
        ]
        merged, _ = _archive_merge(streams)
        assert merged == list(reference_merge_trace_lines(streams))
        assert merged == [r[3] for r in sorted(records)]

    def test_sha256_lines_matches_manual_digest(self):
        lines = ["alpha", "beta"]
        count, digest = sha256_lines(lines)
        assert count == 2
        assert digest == hashlib.sha256(b"alpha\nbeta\n").hexdigest()

    @pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
    def test_sha256_lines_chunks_hash_every_line(self, count, tmp_path):
        """Around the 1024-line chunk edges the digest, the count and
        the bytes written to ``out`` are those of the whole stream."""
        lines = [f"line{k}" for k in range(count)]
        text = "".join(line + "\n" for line in lines)
        path = tmp_path / "out.jsonl"
        with path.open("w", encoding="utf-8") as out:
            result = sha256_lines(iter(lines), out)
        expected = (count, hashlib.sha256(text.encode("utf-8")).hexdigest())
        assert result == expected == sha256_lines(lines)
        assert path.read_text(encoding="utf-8") == text


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

    def test_window_mark_finish_count_three_round_trips(self, processes):
        """Every barrier counts, inline or over pipes: windows + marks +
        finish, as ``ShardedClusterSession.round_trips`` documents."""
        pool = make_pool(EchoHost, [(0, False), (1, False)], processes=processes)
        try:
            pool.window([5.0], [[["a"]], [["b"]]])
            pool.mark("reset")
            pool.finish()
            assert pool.round_trips == 3
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
