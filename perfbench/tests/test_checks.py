"""The output checks, and the benchmark's metric lists against BENCHMARK.json.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.checks import model_problems  # noqa: E402

MODEL = {
    "completed": 945,
    "cold_boot_rate": 0.004232804232804233,
    "p99_latency_s": 0.8684966810545944,
    "throughput_rps": 15.75,
    "evictions": 0,
    "trace_sha256": "f4172fca8e7bed4bd804a635b991c6b3d65363db9f17b3c7ffb1b38b3e940b95",
}


def test_matching_outputs_pass():
    assert model_problems(dict(MODEL), 945, MODEL) == []
    assert model_problems(dict(MODEL), 945) == []


def test_short_completed_is_caught():
    short = dict(MODEL, completed=944)
    problems = model_problems(short, 945)
    assert len(problems) == 1 and "completed" in problems[0]
    # Against a reference it is also a repeat mismatch.
    assert len(model_problems(short, 945, MODEL)) == 2


def test_tampered_digest_is_caught():
    tampered = dict(MODEL, trace_sha256="0" * 64)
    problems = model_problems(tampered, 945, MODEL)
    assert len(problems) == 1 and "trace_sha256" in problems[0]


def test_last_digit_of_a_float_is_caught():
    drifted = dict(MODEL, p99_latency_s=0.8684966810545945)
    assert model_problems(drifted, 945, MODEL)


def test_missing_output_is_caught():
    partial = {k: v for k, v in MODEL.items() if k != "evictions"}
    assert model_problems(partial, 945, MODEL)


def test_host_times_are_scaled_to_the_reference_host():
    from perfbench.run import REFERENCE_HOST_S, end_to_end

    def replay(host_speed_factor):
        return {
            "setup_s": 0.3 * host_speed_factor,
            "replay_s": 4.0 * host_speed_factor,
            "reference_s": [REFERENCE_HOST_S * host_speed_factor] * 2,
            "requests": 2000,
            "peak_rss_mib": 29.0,
            "worker_peak_rss_mib": 33.0,
        }

    on_reference = end_to_end([replay(1.0), replay(1.0)], 1000)
    assert on_reference["replay_s"] == pytest.approx(2.0)
    assert on_reference["sim_requests_per_s"] == pytest.approx(500.0)
    assert on_reference["setup_s"] == pytest.approx(0.3)
    # A host running at half speed gives the same metrics.
    on_slow_host = end_to_end([replay(2.0), replay(2.0)], 1000)
    assert on_slow_host == pytest.approx(on_reference)


@pytest.mark.skipif(
    not (ROOT / "BENCHMARK.json").is_file(), reason="needs the repository's BENCHMARK.json"
)
def test_metric_lists_match_benchmark_json():
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
