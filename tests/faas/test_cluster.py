"""Unit/integration tests for the multi-node cluster layer."""

import pytest

from repro.core import Desiccant
from repro.faas.cluster import (
    Cluster,
    ClusterConfig,
    FrontEndRouter,
    ShardedClusterSession,
)
from repro.faas.keepalive import HybridHistogramKeepAlive
from repro.faas.platform import PlatformConfig
from repro.mem.layout import MIB
from repro.trace.generator import TraceGenerator
from repro.workloads.registry import all_definitions, get_definition


class TestConfig:
    def test_needs_a_node(self):
        with pytest.raises(ValueError):
            ClusterConfig(nodes=0)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            ClusterConfig(scheduler="chaotic")


class TestRouting:
    def test_round_robin_cycles(self):
        router = FrontEndRouter(3, "round-robin")
        d = get_definition("clock")
        assert [router.route(d) for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_least_assigned_balances(self):
        router = FrontEndRouter(2, "least-assigned")
        d = get_definition("clock")
        for _ in range(10):
            router.route(d)
        assert router.assigned == [5, 5]

    def test_warm_affinity_is_sticky(self):
        router = FrontEndRouter(4, "warm-affinity")
        for definition in all_definitions():
            nodes = {router.route(definition) for _ in range(5)}
            assert len(nodes) == 1  # same function -> same node, always

    def test_warm_affinity_spreads_functions(self):
        router = FrontEndRouter(4, "warm-affinity")
        homes = {d.name: router.route(d) for d in all_definitions()}
        assert len(set(homes.values())) >= 3  # uses most of the cluster


def _node_platforms(config):
    """The platforms an inline one-shard session builds, in node order."""
    session = ShardedClusterSession(config)
    (host,) = session.pool._hosts
    return [host.platforms[node] for node in sorted(host.platforms)]


class TestNodeConfigIsolation:
    """The session deep-copies the node config per node: stateful knobs
    (keep-alive policy histograms, the provisioned map) must never be
    shared between nodes."""

    def test_eviction_policies_are_distinct_objects(self):
        template = PlatformConfig(eviction_policy=HybridHistogramKeepAlive())
        nodes = _node_platforms(ClusterConfig(nodes=3, node_config=template))
        policies = [node.eviction_policy for node in nodes]
        assert len({id(p) for p in policies}) == 3
        assert all(p is not template.eviction_policy for p in policies)

    def test_policy_state_does_not_leak_between_nodes(self):
        template = PlatformConfig(eviction_policy=HybridHistogramKeepAlive())
        nodes = _node_platforms(
            ClusterConfig(nodes=2, scheduler="round-robin", node_config=template)
        )
        nodes[0].eviction_policy.on_request("clock", 0.0)
        nodes[0].eviction_policy.on_request("clock", 5.0)
        assert "clock" not in nodes[1].eviction_policy._last_arrival
        assert "clock" not in template.eviction_policy._last_arrival

    def test_provisioned_map_is_not_shared(self):
        template = PlatformConfig(provisioned={"clock": 1})
        nodes = _node_platforms(ClusterConfig(nodes=2, node_config=template))
        nodes[0].config.provisioned["sort"] = 2
        assert "sort" not in nodes[1].config.provisioned
        assert "sort" not in template.provisioned

    def test_node_seeds_are_offset(self):
        nodes = _node_platforms(ClusterConfig(nodes=3))
        seeds = [node.config.seed for node in nodes]
        assert seeds == [0, 1, 2]


class TestEndToEnd:
    def _run(self, scheduler, manager_factory=None):
        cluster = Cluster(
            ClusterConfig(
                nodes=4,
                scheduler=scheduler,
                node_config=PlatformConfig(capacity_bytes=512 * MIB),
            ),
            manager_factory=manager_factory,
        )
        arrivals = TraceGenerator(seed=9).arrivals(40.0, scale_factor=10.0)
        cluster.submit(arrivals)
        return cluster.run()

    def test_cluster_completes_all_requests(self):
        stats = self._run("round-robin")
        assert stats.completed > 50
        assert sum(stats.per_node_requests) == stats.completed

    def test_affinity_beats_round_robin_on_cold_boots(self):
        """Warm locality: concentrating a function's requests on one node
        keeps its instances warm there."""
        rr = self._run("round-robin")
        affinity = self._run("warm-affinity")
        assert affinity.cold_boot_rate < rr.cold_boot_rate

    def test_round_robin_is_better_balanced(self):
        rr = self._run("round-robin")
        affinity = self._run("warm-affinity")
        assert rr.imbalance <= affinity.imbalance + 1e-9

    def test_desiccant_improves_any_scheduler(self):
        for scheduler in ("round-robin", "warm-affinity"):
            vanilla = self._run(scheduler)
            desiccant = self._run(scheduler, manager_factory=Desiccant)
            assert desiccant.cold_boot_rate <= vanilla.cold_boot_rate, scheduler

    def test_nodes_have_independent_caches(self):
        session = ShardedClusterSession(ClusterConfig(nodes=2, scheduler="round-robin"))
        arrivals = [(0.0, get_definition("clock")), (1.0, get_definition("clock"))]
        try:
            session.run_phase(arrivals)
            nodes = session.finish()
        finally:
            session.close()
        # One request per node, each a cold boot on its own cache.
        assert nodes[0]["cold_boots"] == 1
        assert nodes[1]["cold_boots"] == 1
