"""Deterministic replay: same seed + same arrivals => byte-identical traces.

The satellite guarantee the event kernel must provide: two back-to-back
runs of the same scenario produce *byte-identical* JSONL event traces --
for a single node and a 4-node cluster, for the vanilla baseline and the
Desiccant manager.  (The trace sink normalizes process-global request and
instance ids, so this holds within one process too.)
"""

import pytest

from repro.core import Desiccant, VanillaManager
from repro.faas.platform import FaasPlatform, PlatformConfig, Request
from repro.mem.layout import MIB
from repro.sim import EventTraceSink
from repro.trace.generator import TraceGenerator
from repro.trace.replay import ClusterReplayConfig, cluster_replay

DURATION = 20.0
SCALE = 8.0


def single_node_trace(manager_factory, seed=7):
    platform = FaasPlatform(
        config=PlatformConfig(capacity_bytes=512 * MIB, seed=seed),
        manager=manager_factory(),
    )
    sink = EventTraceSink(platform.bus)
    arrivals = TraceGenerator(seed=seed).arrivals(DURATION, scale_factor=SCALE)
    platform.submit([Request(arrival=t, definition=d) for t, d in arrivals])
    platform.run()
    for instance in platform.all_instances():
        instance.destroy()
    return sink.to_jsonl()


def cluster_trace(manager_factory, seed=7):
    """Event count and merged canonical trace digest of a 4-node replay."""
    result = cluster_replay(
        manager_factory,
        ClusterReplayConfig(
            nodes=4,
            scale_factor=SCALE,
            warmup_scale_factor=SCALE,
            warmup_seconds=5.0,
            duration_seconds=DURATION,
            platform=PlatformConfig(capacity_bytes=512 * MIB, seed=seed),
            trace_seed=seed,
            trace=True,
        ),
    )
    return result.trace_events, result.trace_sha256


@pytest.mark.parametrize("manager_factory", [VanillaManager, Desiccant])
def test_single_node_trace_is_reproducible(manager_factory):
    first = single_node_trace(manager_factory)
    second = single_node_trace(manager_factory)
    assert first != ""
    assert first == second


@pytest.mark.parametrize("manager_factory", [VanillaManager, Desiccant])
def test_cluster_trace_is_reproducible(manager_factory):
    first = cluster_trace(manager_factory)
    second = cluster_trace(manager_factory)
    assert first[0] > 0
    assert first == second


def test_different_seeds_differ():
    assert single_node_trace(VanillaManager, seed=7) != single_node_trace(
        VanillaManager, seed=8
    )
