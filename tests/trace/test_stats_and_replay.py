"""Unit tests for percentile stats and the replay harness."""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.analysis.bench import build_replay_macro
from repro.core import Desiccant, VanillaManager
from repro.faas.platform import PlatformConfig
from repro.mem.layout import GIB, MIB
from repro.sim.trace import EventTraceSink
from repro.trace.generator import TraceGenerator
from repro.trace.replay import ReplayConfig, replay
from repro.trace.stats import percentile
from repro.workloads.registry import get_definition


class TestPercentile:
    def test_simple_percentiles(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile(values, 0) == 1

    def test_unsorted_input(self):
        assert percentile([5, 1, 9, 3], 50) == 3

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)


ROOT = Path(__file__).resolve().parents[2]


class TestReplayConfig:
    def test_traced_replay_keeps_no_lines_in_memory(self, tmp_path, monkeypatch):
        sinks = []
        build = EventTraceSink.__init__

        def spy(sink, *args, **kwargs):
            build(sink, *args, **kwargs)
            sinks.append(sink)

        monkeypatch.setattr(EventTraceSink, "__init__", spy)
        path = tmp_path / "trace.jsonl"
        result = replay(
            VanillaManager,
            ReplayConfig(
                scale_factor=2.0,
                warmup_seconds=2.0,
                warmup_scale_factor=2.0,
                duration_seconds=4.0,
                event_trace_path=path,
            ),
            TraceGenerator(seed=3),
        )
        assert result.trace_events == len(path.read_text().splitlines()) > 0
        assert [sink.lines for sink in sinks] == [[]]

    def test_flat_trace_alone_writes_the_committed_digest(
        self, tmp_path, monkeypatch
    ):
        """A replay that asks only for the flat trace writes it through a
        temporary archive root: on the replay smoke's small Desiccant leg
        it writes the committed trace bytes and leaves no root behind."""
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmpdir))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        (spec,) = build_replay_macro(sizes=("small",), policies=("desiccant",))
        committed = {
            run["label"]: run["metrics"]
            for run in json.loads((ROOT / "BENCH_replay.json").read_text())["runs"]
        }[spec.label]
        path = tmp_path / "trace.jsonl"
        result = replay(
            Desiccant,
            ReplayConfig(
                scale_factor=spec.scale,
                warmup_seconds=spec.warmup,
                warmup_scale_factor=spec.scale,
                duration_seconds=spec.duration,
                platform=PlatformConfig(capacity_bytes=spec.capacity_mib * MIB),
                event_trace_path=path,
            ),
            TraceGenerator(seed=spec.seed),
        )
        assert result.trace_sha256 == committed["trace_sha256"]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == result.trace_sha256
        assert result.trace_events == committed["trace_events"]
        assert result.archive_path is None
        assert list(tmpdir.iterdir()) == []


class TestReplay:
    @pytest.fixture(scope="class")
    def small_replay(self):
        """A small but end-to-end replay, shared across assertions."""
        config = ReplayConfig(
            scale_factor=6.0,
            warmup_seconds=20.0,
            warmup_scale_factor=6.0,
            duration_seconds=40.0,
            platform=PlatformConfig(capacity_bytes=1 * GIB),
        )
        generator = TraceGenerator(seed=3)
        return replay(VanillaManager, config, generator)

    def test_replay_completes_requests(self, small_replay):
        assert small_replay.stats.completed > 10

    def test_stats_are_consistent(self, small_replay):
        stats = small_replay.stats
        assert stats.policy == "vanilla"
        assert 0 <= stats.cpu_utilization <= 1
        assert stats.p50_latency <= stats.p90_latency <= stats.p99_latency
        assert stats.throughput_rps == pytest.approx(
            stats.completed / stats.duration_seconds
        )

    def test_warmup_not_counted(self, small_replay):
        # All counted outcomes arrive in the measurement window.
        outcomes = small_replay.platform.outcomes
        assert all(o.request.arrival >= 20.0 for o in outcomes)

    def test_desiccant_replay_reclaims_under_pressure(self):
        config = ReplayConfig(
            scale_factor=6.0,
            warmup_seconds=20.0,
            warmup_scale_factor=6.0,
            duration_seconds=40.0,
            platform=PlatformConfig(capacity_bytes=640 * MIB),
        )
        from repro.core import ActivationController

        # A 640 MiB cache with 256 MiB launches hits eviction pressure well
        # below the paper's default 60% floor; configure the floor down as
        # an operator of such a small node would.
        result = replay(
            lambda: Desiccant(activation=ActivationController(floor=0.25, ceiling=0.3)),
            config,
            TraceGenerator(seed=3),
        )
        assert result.stats.policy == "desiccant"
        manager = result.platform.manager
        assert manager.total_released_bytes > 0
