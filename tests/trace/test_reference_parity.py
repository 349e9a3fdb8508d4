"""End-to-end reference parity: byte-identical event traces.

Production runs one implementation per hot structure (indexed bus
dispatch, cohort heap model, incremental platform aggregates, policy
heaps, Desiccant's ranked cache).  The claim is that none of them
changes anything observable: a full platform replay streams the exact
same event trace in production form and under the test-only reference
paths of ``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import Desiccant, VanillaManager
from repro.faas.platform import PlatformConfig
from repro.mem.layout import MIB
from repro.trace.generator import TraceGenerator
from repro.trace.replay import ReplayConfig, replay
from tests.oracles import reference_paths


def _trace_digest(factory, path):
    config = ReplayConfig(
        scale_factor=2.0,
        warmup_seconds=5.0,
        warmup_scale_factor=2.0,
        duration_seconds=10.0,
        platform=PlatformConfig(capacity_bytes=512 * MIB),
        event_trace_path=str(path),
    )
    result = replay(factory, config, TraceGenerator(seed=42))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest, result.trace_events


@pytest.mark.parametrize(
    "factory", (VanillaManager, Desiccant), ids=("vanilla", "desiccant")
)
def test_replay_trace_matches_the_reference_paths(factory, tmp_path):
    digest, events = _trace_digest(factory, tmp_path / "production.jsonl")
    with pytest.MonkeyPatch.context() as patch:
        reference_paths(patch)
        ref_digest, ref_events = _trace_digest(factory, tmp_path / "reference.jsonl")
    assert events == ref_events > 0
    assert digest == ref_digest
