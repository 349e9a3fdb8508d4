"""End-to-end tests for sharded cluster replay (repro.faas.cluster).

The contract under test: a sharded run differs from the serial twin in
exactly one way -- how nodes were partitioned across kernels -- so
aggregate statistics, archive segments, merged canonical trace digests,
and streamed telemetry CSVs must be byte-identical for every shard count.
"""

from __future__ import annotations

import hashlib
import tempfile

import pytest

from repro.core import Desiccant
from repro.faas.cluster import (
    Cluster,
    ClusterConfig,
    ShardedClusterSession,
    partition_nodes,
)
from repro.faas.platform import PlatformConfig
from repro.mem.layout import MIB
from repro.sim.shard import ShardWorkerError, sha256_lines
from repro.trace.archive import ArchiveReader, finalize_archive
from repro.trace.generator import TraceGenerator
from repro.trace.replay import ClusterReplayConfig, cluster_replay
from repro.workloads.registry import get_definition
from tests.oracles import reference_merge_trace_lines

ARRIVALS = TraceGenerator(seed=9).arrivals(25.0, scale_factor=8.0)


def _config(nodes=8, scheduler="warm-affinity"):
    return ClusterConfig(
        nodes=nodes,
        scheduler=scheduler,
        node_config=PlatformConfig(capacity_bytes=512 * MIB),
    )


def _run_session(
    shards,
    scheduler="warm-affinity",
    processes=False,
    tmp_path=None,
    window_epochs=32,
    epoch_seconds=5.0,
    tag="",
):
    """Drive one traced session over the shared arrival batch; its merged
    trace is what ``finalize_archive`` composes from the session's
    archive."""
    telemetry_dir = tmp_path / f"telemetry-s{shards}{tag}"
    archive_dir = tmp_path / f"archive-s{shards}{tag}"
    session = ShardedClusterSession(
        _config(scheduler=scheduler),
        shards=shards,
        epoch_seconds=epoch_seconds,
        processes=processes,
        window_epochs=window_epochs,
        telemetry_dir=str(telemetry_dir),
        archive_dir=str(archive_dir),
        archive_bucket_seconds=5.0,
    )
    try:
        session.mark("start-trace")
        session.run_phase(ARRIVALS, start=0.0, end=25.0)
        nodes = session.finish()
        epochs, clock = session.epochs, session.clock
        round_trips, pipe_bytes = session.round_trips, session.pipe_bytes
    finally:
        session.close()
    events, digest = finalize_archive(archive_dir)
    telemetry = b"".join(
        path.read_bytes() for path in sorted(telemetry_dir.glob("node*.csv"))
    )
    return {
        "nodes": nodes,
        "events": events,
        "digest": digest,
        "telemetry": telemetry,
        "epochs": epochs,
        "clock": clock,
        "completed": sum(len(info["outcomes"]) for info in nodes.values()),
        "archive_dir": archive_dir,
        "round_trips": round_trips,
        "pipe_bytes": pipe_bytes,
    }


class TestPartition:
    def test_partitions_are_contiguous_and_exhaustive(self):
        parts = partition_nodes(8, 3)
        assert [n for part in parts for n in part] == list(range(8))
        assert all(part == tuple(range(part[0], part[-1] + 1)) for part in parts)

    def test_balanced_within_one(self):
        sizes = [len(p) for p in partition_nodes(10, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_shards_clamped_to_nodes(self):
        assert partition_nodes(2, 8) == [(0,), (1,)]
        assert partition_nodes(4, 0) == [(0, 1, 2, 3)]


class TestDigestIdentity:
    def test_sharded_trace_matches_serial_twin(self, tmp_path):
        """Satellite property: merged traces byte-identical to the
        serial twin for shards in {1, 2, 4, 7}."""
        serial = _run_session(1, tmp_path=tmp_path)
        assert serial["events"] > 0
        for shards in (2, 4, 7):
            sharded = _run_session(shards, tmp_path=tmp_path)
            assert sharded["events"] == serial["events"], shards
            assert sharded["digest"] == serial["digest"], shards
            assert sharded["epochs"] == serial["epochs"]
            assert sharded["clock"] == serial["clock"]

    def test_process_workers_match_inline_twin(self, tmp_path):
        inline = _run_session(2, processes=False, tmp_path=tmp_path)
        forked = _run_session(2, processes=True, tmp_path=tmp_path)
        assert forked["digest"] == inline["digest"]
        assert forked["events"] == inline["events"]

    def test_telemetry_csvs_are_byte_identical(self, tmp_path):
        """Per-epoch streamed telemetry must not depend on sharding."""
        serial = _run_session(1, tmp_path=tmp_path)
        sharded = _run_session(4, tmp_path=tmp_path)
        assert serial["telemetry"]
        assert sharded["telemetry"] == serial["telemetry"]


class TestArchiveIdentity:
    def test_archive_is_byte_identical_across_shard_counts(self, tmp_path):
        """The segmented archives a run produces are byte-identical files
        across shard counts, and their composed digest equals an
        independent merge: each node's segment payloads concatenated in
        bucket order, merged by the ``json.loads`` oracle."""
        serial = _run_session(1, tmp_path=tmp_path)
        reference = serial["archive_dir"]
        names = sorted(p.name for p in reference.iterdir())
        assert any(name.startswith("seg-") for name in names)

        reader = ArchiveReader(reference)
        streams = {}
        for info in reader.segments():  # (bucket, node) order
            payload, _footer = reader.read_segment(info.name)
            streams.setdefault(info.node, []).extend(payload)
        assert len(streams) == 8
        witness = sha256_lines(reference_merge_trace_lines(list(streams.values())))
        assert witness == (serial["events"], serial["digest"])
        assert reader.manifest["sha256"] == serial["digest"]
        assert reader.manifest["events"] == serial["events"]
        assert reader.verify(against_sha256=serial["digest"]) == (
            serial["events"],
            serial["digest"],
            [],
        )

        for shards in (2, 4, 7):
            sharded = _run_session(shards, tmp_path=tmp_path)
            root = sharded["archive_dir"]
            assert sorted(p.name for p in root.iterdir()) == names, shards
            for name in names:
                assert (root / name).read_bytes() == (
                    reference / name
                ).read_bytes(), (shards, name)

    def test_process_workers_write_identical_archives(self, tmp_path):
        inline = _run_session(2, processes=False, tmp_path=tmp_path)
        forked = _run_session(2, processes=True, tmp_path=tmp_path)
        names = sorted(p.name for p in inline["archive_dir"].iterdir())
        assert sorted(p.name for p in forked["archive_dir"].iterdir()) == names
        for name in names:
            assert (forked["archive_dir"] / name).read_bytes() == (
                inline["archive_dir"] / name
            ).read_bytes(), name


class TestProtocolEquivalence:
    """Window batching is a wire optimization only: digests, telemetry,
    and stats must not depend on how many epochs one grant carries."""

    def test_window_epochs_do_not_change_the_digest(self, tmp_path):
        runs = [
            _run_session(2, tmp_path=tmp_path, window_epochs=w, tag=f"-w{w}")
            for w in (1, 3, 32)
        ]
        digests = {run["digest"] for run in runs}
        assert len(digests) == 1
        assert runs[0]["events"] > 0

    def test_batching_cuts_round_trips_and_pipe_bytes(self, tmp_path):
        """Fine epochs amplify the per-epoch constant factor; one window
        grant absorbs them all.  Pipe bytes need process workers (the
        inline pool never serializes)."""
        kwargs = dict(tmp_path=tmp_path, processes=True, epoch_seconds=1.0)
        batched = _run_session(2, window_epochs=32, tag="-w32", **kwargs)
        single = _run_session(2, window_epochs=1, tag="-w1", **kwargs)
        assert batched["digest"] == single["digest"]
        assert batched["round_trips"] * 5 <= single["round_trips"]
        assert batched["pipe_bytes"] * 2 <= single["pipe_bytes"]
        assert batched["pipe_bytes"] > 0


class TestClusterRun:
    @pytest.mark.parametrize(
        "scheduler", ["round-robin", "least-assigned", "warm-affinity"]
    )
    def test_sharded_stats_equal_serial(self, scheduler):
        def build():
            cluster = Cluster(_config(nodes=4, scheduler=scheduler))
            cluster.submit(ARRIVALS)
            return cluster

        serial = build().run()
        sharded = build().run(shards=2)
        assert serial.completed == len(ARRIVALS)
        assert sharded == serial  # dataclass equality: every field


class TestSubmissionOrder:
    """The epoch loop feeds arrivals in log order, so a log that goes back
    in time would submit a request after its node's clock passed it."""

    def test_session_refuses_a_log_that_goes_back_in_time(self):
        clock = get_definition("clock")
        session = ShardedClusterSession(_config(nodes=1))
        try:
            with pytest.raises(ValueError, match=r"arrival 2 \(t=1\.0\)"):
                session.run_phase([(12.0, clock), (20.0, clock), (1.0, clock)])
        finally:
            session.close()

    def test_cluster_refuses_a_batch_that_starts_earlier(self):
        clock = get_definition("clock")
        cluster = Cluster(_config(nodes=2))
        cluster.submit([(12.0, clock), (20.0, clock)])
        cluster.submit([(1.0, clock)])
        with pytest.raises(ValueError, match="must not decrease"):
            cluster.run()

    def test_equal_times_are_accepted(self):
        clock = get_definition("clock")
        cluster = Cluster(_config(nodes=2))
        cluster.submit([(1.0, clock), (1.0, clock), (2.0, clock)])
        assert cluster.run().completed == 3


def _boom_manager():
    raise RuntimeError("manager factory boom")


class TestWorkerFailure:
    def test_worker_traceback_propagates(self, tmp_path):
        session = ShardedClusterSession(_config(nodes=2), _boom_manager, shards=2)
        try:
            with pytest.raises(ShardWorkerError, match="manager factory boom"):
                session.run_phase(ARRIVALS[:4], start=0.0, end=5.0)
        finally:
            session.close()


class TestClusterReplay:
    def _replay(
        self,
        shards,
        tmp_path,
        policy=None,
        trace_path=None,
        archive_dir=None,
    ):
        config = ClusterReplayConfig(
            nodes=4,
            shards=shards,
            epoch_seconds=5.0,
            scale_factor=6.0,
            warmup_seconds=10.0,
            warmup_scale_factor=6.0,
            duration_seconds=20.0,
            platform=PlatformConfig(capacity_bytes=512 * MIB),
            trace=True,
            event_trace_path=trace_path,
            archive_dir=archive_dir,
            archive_bucket_seconds=5.0,
        )
        return cluster_replay(policy or (lambda: Desiccant()), config)

    def test_sharded_replay_matches_serial(self, tmp_path):
        serial = self._replay(1, tmp_path)
        sharded = self._replay(2, tmp_path)
        assert serial.stats.completed > 0
        assert sharded.stats == serial.stats
        assert sharded.trace_events == serial.trace_events > 0
        assert sharded.trace_sha256 == serial.trace_sha256
        assert sharded.epochs == serial.epochs > 0

    def test_merged_trace_file_written(self, tmp_path):
        out = tmp_path / "merged.jsonl"
        result = self._replay(2, tmp_path, trace_path=out)
        assert result.trace_path == out
        lines = out.read_text().splitlines()
        assert len(lines) == result.trace_events > 0

    def test_archived_replay_composes_to_flat_digest(self, tmp_path):
        """The in-run archive's composed digest is the flat merged
        trace's: re-verify the archive and hash the file it wrote."""
        out = tmp_path / "merged.jsonl"
        result = self._replay(
            2, tmp_path, trace_path=out, archive_dir=tmp_path / "arc"
        )
        assert result.trace_events > 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == result.trace_sha256
        reader = ArchiveReader(result.archive_path)
        assert reader.verify(against_sha256=result.trace_sha256) == (
            result.trace_events,
            result.trace_sha256,
            [],
        )

    def test_windowed_replay_reads_only_window_segments(self, tmp_path):
        result = self._replay(2, tmp_path, archive_dir=tmp_path / "arc")
        reader = ArchiveReader(result.archive_path)
        events, _ = sha256_lines(
            reader.iter_window(t_start=12.0, t_end=18.0, nodes=(0, 2), verify=True)
        )
        assert 0 < events < result.trace_events
        # I/O witness: every segment touched lies inside the window.
        assert reader.segments_read
        for name in reader.segments_read:
            bucket = int(name.split("-")[1][1:])
            node = int(name.split("-")[2].split(".")[0][1:])
            assert 12.0 <= (bucket + 1) * 5.0 and bucket * 5.0 < 18.0, name
            assert node in (0, 2), name


class TestRefusedClusterReplay:
    """A traced replay without ``archive_dir`` writes through a temporary
    archive root.  A run refused before its first window leaves none
    behind in the temporary directory."""

    @pytest.fixture
    def tmpdir_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        return tmp_path

    def _config(self, **overrides):
        return ClusterReplayConfig(
            **{
                "nodes": 2,
                "trace": True,
                "warmup_seconds": 1.0,
                "duration_seconds": 1.0,
                **overrides,
            }
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"window_epochs": 0},
            {"epoch_seconds": 0.0},
            {"scheduler": "bogus"},
            {"nodes": 0},
        ],
    )
    def test_refused_config_leaves_no_archive_root(self, tmpdir_root, bad):
        with pytest.raises(ValueError):
            cluster_replay(Desiccant, self._config(**bad))
        assert list(tmpdir_root.glob("repro-trace-archive-*")) == []

    def test_session_refused_after_the_root_is_made_removes_it(self, tmpdir_root):
        """A config changed after it was built passes its own checks,
        reaches the temporary root and is refused by the session."""
        config = self._config()
        config.window_epochs = 0
        with pytest.raises(ValueError, match="window_epochs"):
            cluster_replay(Desiccant, config)
        assert list(tmpdir_root.glob("repro-trace-archive-*")) == []


class TestDenseLogDigest:
    """A dense x40 log: 8 epochs of the fixed grid, where a grid that
    splits dense cells takes 12.  The merged trace must not depend on the
    grid, so its digest is pinned to the bytes both grids produce."""

    def test_dense_log_reproduces_the_pinned_digest(self):
        result = cluster_replay(
            Desiccant,
            ClusterReplayConfig(
                nodes=4,
                shards=1,
                epoch_seconds=2.0,
                scale_factor=40.0,
                warmup_scale_factor=40.0,
                warmup_seconds=4.0,
                duration_seconds=8.0,
                platform=PlatformConfig(capacity_bytes=512 * MIB),
                trace=True,
            ),
        )
        assert result.trace_sha256 == (
            "b59ebcc1703c619281ce581a4c83363a68ded62b410b626b10eb7db5fc66afb5"
        )
        assert result.trace_events == 1894
        assert result.stats.completed == 306
        assert result.epochs == 8
