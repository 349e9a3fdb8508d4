"""Tests for the parallel benchmark fan-out (repro.analysis.bench)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.bench import (
    REPLAY_SIZES,
    BenchSpec,
    _serial_twin_label,
    build_grid,
    build_replay_macro,
    compare_micro,
    compare_replay,
    execute_spec,
    load_baseline,
    replay_speedups,
    run_benchmarks,
    run_vmm_microbench,
    summarize,
    verify_trace_identity,
    write_results,
)
from repro.cli import main as cli_main


def _replay_result(label, wall, sha="a" * 64, events=100, seed=42):
    """A synthetic replay run result in the execute_spec shape."""
    return {
        "label": label,
        "spec": {"kind": "replay", "seed": seed},
        "metrics": {"trace_sha256": sha, "trace_events": events},
        "wall_seconds": wall,
        "cpu_seconds": wall,
    }


class TestSpecs:
    def test_labels(self):
        assert (
            BenchSpec(kind="characterize", name="fft", policy="desiccant").label
            == "characterize:fft:desiccant:i30"
        )
        assert BenchSpec(kind="replay", policy="eager", scale=5.0).label == (
            "replay:eager:x5:d20"
        )
        assert BenchSpec(kind="micro").label == "micro:vmm:200mib"

    def test_specs_are_hashable_and_frozen(self):
        spec = BenchSpec(kind="micro")
        assert spec in {spec}
        with pytest.raises(AttributeError):
            spec.kind = "replay"

    def test_build_grid_shape(self):
        specs = build_grid(
            functions=["fft", "sort"],
            policies=["vanilla", "desiccant"],
            scales=[2.0],
        )
        kinds = [s.kind for s in specs]
        assert kinds.count("characterize") == 4
        assert kinds.count("replay") == 2
        assert len({s.label for s in specs}) == len(specs)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown bench kind"):
            execute_spec(BenchSpec(kind="nope"))


class TestExecution:
    def test_characterize_spec_runs(self):
        out = execute_spec(
            BenchSpec(kind="characterize", name="fft", policy="vanilla", iterations=5)
        )
        assert out["label"] == "characterize:fft:vanilla:i5"
        assert out["metrics"]["final_uss"] > 0
        assert out["wall_seconds"] >= 0 and out["cpu_seconds"] >= 0

    def test_micro_spec_runs(self):
        out = execute_spec(BenchSpec(kind="micro", size_mib=8, repeats=1))
        metrics = out["metrics"]
        assert metrics["pages"] == 8 * 256
        assert metrics["touch_ms"] > 0 and metrics["ref_touch_ms"] > 0

    def test_parallel_matches_serial(self):
        specs = [
            BenchSpec(kind="characterize", name="fft", policy=pol, iterations=5)
            for pol in ("vanilla", "desiccant")
        ]
        serial = run_benchmarks(specs, jobs=1)
        parallel = run_benchmarks(specs, jobs=2)
        assert [r["label"] for r in serial] == [r["label"] for r in parallel]
        assert [r["metrics"] for r in serial] == [r["metrics"] for r in parallel]

    def test_execute_spec_records_tracemalloc_peak(self):
        out = execute_spec(BenchSpec(kind="micro", size_mib=4, repeats=1))
        assert out["peak_tracemalloc_bytes"] > 0


class TestBaseline:
    def test_round_trip_and_compare(self, tmp_path):
        metrics = run_vmm_microbench(size_mib=4, repeats=1)
        doc = summarize(
            [
                {
                    "label": "micro:vmm:4mib",
                    "spec": {"kind": "micro"},
                    "metrics": metrics,
                    "wall_seconds": 0.1,
                    "cpu_seconds": 0.1,
                }
            ]
        )
        path = tmp_path / "baseline.json"
        write_results(path, doc)
        loaded = load_baseline(path)
        assert loaded["schema"] == "repro-bench/1"
        assert compare_micro(metrics, loaded["runs"][0]["metrics"]) == []

    def test_compare_micro_flags_regression(self):
        baseline = {"touch_ms": 1.0, "discard_ms": 1.0}
        fine = {"touch_ms": 1.5, "discard_ms": 0.5}
        slow = {"touch_ms": 2.5, "discard_ms": 1.0}
        assert compare_micro(fine, baseline) == []
        failures = compare_micro(slow, baseline)
        assert len(failures) == 1 and "touch_ms" in failures[0]

    def test_compare_micro_missing_key(self):
        assert compare_micro({}, {"touch_ms": 1.0, "discard_ms": 1.0})

    def test_missing_baseline_returns_none(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") is None


class TestReplayMacro:
    def test_build_replay_macro_shape(self):
        specs = build_replay_macro(sizes=("small", "large"), policies=("vanilla",))
        assert len(specs) == 2  # 2 sizes x 1 policy
        assert all(s.kind == "replay" and s.trace and s.archive for s in specs)
        assert len({s.label for s in specs}) == 2
        assert specs[0].scale == REPLAY_SIZES["small"]["scale"]

    def test_unknown_size_raises(self):
        with pytest.raises(ValueError, match="unknown replay size"):
            build_replay_macro(sizes=("enormous",))

    def test_verify_trace_identity_passes_on_matching_pair(self):
        result = _replay_result("replay:vanilla:x8:d30", 1.0, sha="f" * 64)
        result["metrics"]["archive_sha256"] = "f" * 64
        assert verify_trace_identity([result]) == []

    def test_verify_trace_identity_flags_divergence(self):
        result = _replay_result("replay:vanilla:x8:d30", 1.0, sha="f" * 64)
        result["metrics"]["archive_sha256"] = "0" * 64
        failures = verify_trace_identity([result])
        assert len(failures) == 1 and "diverged" in failures[0]

    def test_verify_trace_identity_skips_unpaired_legs(self):
        assert verify_trace_identity([_replay_result("replay:vanilla:x8:d30", 1.0)]) == []

    def test_replay_speedups_pairs_legs(self):
        speedups = replay_speedups(
            [
                # A single-platform leg with no sharded partner: no entry.
                _replay_result("replay:vanilla:x15:d60", 3.0),
                _replay_result("replay:vanilla:x8:d30:n8", 10.0),
                _replay_result("replay:vanilla:x8:d30:n8:s2", 2.0),
            ]
        )
        assert list(speedups) == ["replay:vanilla:x8:d30:n8:s2"]
        entry = speedups["replay:vanilla:x8:d30:n8:s2"]
        assert entry["speedup"] == 5.0
        assert entry["serial_wall_seconds"] == 10.0

    def test_compare_replay_gates_wall_time(self):
        baseline = [
            _replay_result("replay:vanilla:x8:d30", 1.0),
            _replay_result("replay:vanilla:x8:d30:n8", 5.0),
        ]
        fine = [
            _replay_result("replay:vanilla:x8:d30", 1.5),
            # A label the baseline lacks: informational, never gated.
            _replay_result("replay:vanilla:x8:d30:n8:s4", 50.0),
        ]
        slow = [_replay_result("replay:vanilla:x8:d30", 3.0)]
        assert compare_replay(fine, baseline, factor=2.0) == []
        failures = compare_replay(slow, baseline, factor=2.0)
        assert len(failures) == 1 and "exceeds" in failures[0]

    def test_compare_replay_flags_changed_trace_digest(self):
        baseline = [_replay_result("replay:vanilla:x8:d30", 1.0, sha="f" * 64)]
        same = [_replay_result("replay:vanilla:x8:d30", 1.0, sha="f" * 64)]
        changed = [_replay_result("replay:vanilla:x8:d30", 1.0, sha="0" * 64)]
        assert compare_replay(same, baseline) == []
        failures = compare_replay(changed, baseline)
        assert len(failures) == 1 and "digest" in failures[0]

    def test_compare_replay_flags_extra_round_trips(self):
        baseline = [_coord_result("replay:vanilla:x8:d30:n8:s2", 5, 12_000)]
        fewer = [_coord_result("replay:vanilla:x8:d30:n8:s2", 4, 12_000)]
        more = [_coord_result("replay:vanilla:x8:d30:n8:s2", 6, 12_000)]
        assert compare_replay(fewer, baseline) == []
        failures = compare_replay(more, baseline)
        assert len(failures) == 1 and "round trips" in failures[0]

    def test_compare_replay_flags_pipe_byte_growth(self):
        baseline = [_coord_result("replay:vanilla:x8:d30:n8:s2", 5, 12_000)]
        within = [_coord_result("replay:vanilla:x8:d30:n8:s2", 5, 24_000)]
        over = [_coord_result("replay:vanilla:x8:d30:n8:s2", 5, 24_001)]
        assert compare_replay(within, baseline, factor=2.0) == []
        failures = compare_replay(over, baseline, factor=2.0)
        assert len(failures) == 1 and "pipe bytes" in failures[0]

    def test_compare_replay_simulation_gates_need_the_committed_seed(self):
        baseline = [_coord_result("replay:vanilla:x8:d30:n8:s2", 5, 12_000)]
        other = _coord_result("replay:vanilla:x8:d30:n8:s2", 9, 90_000)
        other["spec"]["seed"] = 7
        other["metrics"]["trace_sha256"] = "0" * 64
        assert compare_replay([other], baseline) == []

    def test_compare_replay_reports_no_match(self):
        current = [_replay_result("replay:vanilla:x8:d30", 1.0)]
        failures = compare_replay(current, [], factor=2.0)
        assert len(failures) == 1 and "matched" in failures[0]

    def test_summarize_includes_speedups_for_paired_runs(self):
        doc = summarize(
            [
                _replay_result("replay:vanilla:x8:d30:n8", 6.0),
                _replay_result("replay:vanilla:x8:d30:n8:s2", 2.0),
            ]
        )
        speedup = doc["replay_speedups"]["replay:vanilla:x8:d30:n8:s2"]["speedup"]
        assert speedup == 3.0


class TestProfile:
    def test_execute_spec_dumps_profile(self, tmp_path):
        out = execute_spec(
            BenchSpec(kind="micro", size_mib=4, repeats=1),
            profile_dir=str(tmp_path),
        )
        prof = tmp_path / "micro_vmm_4mib.prof"
        listing = tmp_path / "micro_vmm_4mib.txt"
        assert prof.is_file() and listing.is_file()
        assert out["profile"] == str(prof)
        assert "cumulative" in listing.read_text()


class TestCli:
    def test_bench_micro_writes_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = cli_main(
            ["bench", "--suite", "micro", "--size-mib", "4", "--json", str(path)]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["runs"][0]["spec"]["kind"] == "micro"
        assert "micro:vmm:4mib" in capsys.readouterr().out

    def test_bench_check_passes_against_fresh_baseline(self, tmp_path):
        path = tmp_path / "base.json"
        assert (
            cli_main(
                ["bench", "--suite", "micro", "--size-mib", "4", "--json", str(path)]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "bench",
                    "--suite",
                    "micro",
                    "--size-mib",
                    "4",
                    "--check",
                    str(path),
                    "--factor",
                    "50",
                ]
            )
            == 0
        )

    def test_bench_check_missing_baseline_errors(self, tmp_path):
        code = cli_main(
            [
                "bench",
                "--suite",
                "micro",
                "--size-mib",
                "4",
                "--check",
                str(tmp_path / "absent.json"),
            ]
        )
        assert code == 2


class TestClusterLegs:
    def test_cluster_and_shard_label_suffixes(self):
        single = BenchSpec(kind="replay", policy="vanilla", scale=8.0)
        cluster = BenchSpec(kind="replay", policy="vanilla", scale=8.0, nodes=8)
        sharded = BenchSpec(
            kind="replay", policy="vanilla", scale=8.0, nodes=8, shards=4
        )
        assert single.label == "replay:vanilla:x8:d20"
        assert cluster.label == "replay:vanilla:x8:d20:n8"
        assert sharded.label == "replay:vanilla:x8:d20:n8:s4"

    def test_build_replay_macro_adds_cluster_legs(self):
        specs = build_replay_macro(
            sizes=("small",), policies=("vanilla",), nodes=8, shard_counts=(2, 4)
        )
        cluster = [s for s in specs if s.nodes]
        # One serial twin plus one leg per shard count, all traced.
        assert [s.shards for s in cluster] == [1, 2, 4]
        assert all(s.trace and s.nodes == 8 for s in cluster)
        labels = [s.label for s in cluster]
        assert labels[0].endswith(":n8")
        assert labels[1].endswith(":n8:s2") and labels[2].endswith(":n8:s4")
        # The single-platform leg is still present for the vs_single pairing.
        assert sum(1 for s in specs if not s.nodes) == 1

    def test_verify_trace_identity_gates_sharded_legs(self):
        matching = [
            _replay_result("replay:vanilla:x8:d30:n8", 4.0, sha="f" * 64),
            _replay_result("replay:vanilla:x8:d30:n8:s2", 2.0, sha="f" * 64),
        ]
        assert verify_trace_identity(matching) == []
        diverged = [
            _replay_result("replay:vanilla:x8:d30:n8", 4.0, sha="f" * 64),
            _replay_result("replay:vanilla:x8:d30:n8:s2", 2.0, sha="0" * 64),
        ]
        failures = verify_trace_identity(diverged)
        assert len(failures) == 1 and "serial twin" in failures[0]

    def test_verify_trace_identity_skips_unpaired_shard_leg(self):
        alone = [_replay_result("replay:vanilla:x8:d30:n8:s2", 2.0)]
        assert verify_trace_identity(alone) == []

    def test_replay_speedups_sharded_and_vs_single_pairings(self):
        speedups = replay_speedups(
            [
                _replay_result("replay:vanilla:x8:d30", 1.0),
                _replay_result("replay:vanilla:x8:d30:n8", 4.0),
                _replay_result("replay:vanilla:x8:d30:n8:s2", 2.0),
            ]
        )
        entry = speedups["replay:vanilla:x8:d30:n8:s2"]
        assert entry["speedup"] == 2.0  # serial twin 4.0s / sharded 2.0s
        assert entry["serial_wall_seconds"] == 4.0
        assert entry["vs_single_speedup"] == 0.5  # single 1.0s / sharded 2.0s
        # The serial twin itself has no partner pairing.
        assert "replay:vanilla:x8:d30:n8" not in speedups

    def test_execute_spec_runs_sharded_cluster_replay(self):
        out = execute_spec(
            BenchSpec(
                kind="replay",
                policy="vanilla",
                scale=4.0,
                duration=10.0,
                warmup=5.0,
                capacity_mib=512,
                nodes=2,
                shards=2,
                trace=True,
            )
        )
        assert out["label"] == "replay:vanilla:x4:d10:n2:s2"
        metrics = out["metrics"]
        assert metrics["epochs"] > 0
        assert metrics["trace_events"] > 0
        assert len(metrics["trace_sha256"]) == 64


def _coord_result(label, round_trips, pipe_bytes):
    result = _replay_result(label, 1.0)
    result["metrics"]["round_trips"] = round_trips
    result["metrics"]["pipe_bytes"] = pipe_bytes
    return result


class TestProtocolLegs:
    def test_serial_twin_label_strips_shards(self):
        assert (
            _serial_twin_label("replay:vanilla:x8:d30:n8:s2")
            == "replay:vanilla:x8:d30:n8"
        )
        assert _serial_twin_label("replay:vanilla:x8:d30:n8") == (
            "replay:vanilla:x8:d30:n8"
        )

    def test_summarize_records_cpu_count(self):
        document = summarize([_replay_result("replay:vanilla:x8:d30", 1.0)])
        import os

        assert document["cpu_count"] == os.cpu_count()

    def test_execute_spec_records_coordination_metrics(self):
        out = execute_spec(
            BenchSpec(
                kind="replay",
                policy="vanilla",
                scale=4.0,
                duration=10.0,
                warmup=5.0,
                capacity_mib=512,
                nodes=2,
                shards=2,
                trace=True,
            )
        )
        metrics = out["metrics"]
        assert metrics["round_trips"] > 0
        assert metrics["pipe_bytes"] > 0
        assert metrics["pipe_bytes_per_epoch"] > 0
        assert metrics["coordination_overhead"] >= 0.0
        assert metrics["cpu_count"] == __import__("os").cpu_count()


class TestWorkerEnvPropagation:
    def test_spawn_pool_matches_serial_results(self):
        """Worker pools re-apply the parent's run flags via the
        initializer, so results are identical even under ``spawn``
        (where children inherit nothing that was set programmatically)."""
        import multiprocessing

        specs = [
            BenchSpec(kind="characterize", name="fft", policy=pol, iterations=5)
            for pol in ("vanilla", "desiccant")
        ]
        serial = run_benchmarks(specs, jobs=1)
        spawned = run_benchmarks(
            specs, jobs=2, mp_context=multiprocessing.get_context("spawn")
        )
        assert [r["metrics"] for r in spawned] == [r["metrics"] for r in serial]
