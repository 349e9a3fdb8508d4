"""Ablation: cluster routing x Desiccant.

Extends the single-node §5.3 result to a 4-node cluster: warm-affinity
routing concentrates each function's warm instances, and Desiccant shrinks
them wherever they land -- the two compose, with the best cold-boot rate
when both are on.
"""

from conftest import RESULTS_DIR

from repro.analysis.report import render_table, write_csv
from repro.core import Desiccant, VanillaManager
from repro.faas.cluster import Cluster, ClusterConfig
from repro.faas.platform import PlatformConfig
from repro.mem.layout import MIB
from repro.trace.generator import TraceGenerator

SCHEDULERS = ("round-robin", "least-assigned", "warm-affinity")


def _run(scheduler, with_desiccant):
    cluster = Cluster(
        ClusterConfig(
            nodes=4,
            scheduler=scheduler,
            node_config=PlatformConfig(capacity_bytes=512 * MIB),
        ),
        manager_factory=Desiccant if with_desiccant else VanillaManager,
    )
    arrivals = TraceGenerator(seed=42).arrivals(60.0, scale_factor=15.0)
    cluster.submit(arrivals)
    return cluster.run()


def _collect():
    return {
        (scheduler, desiccant): _run(scheduler, desiccant)
        for scheduler in SCHEDULERS
        for desiccant in (False, True)
    }


def test_ablation_cluster_routing(benchmark, results_dir):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    rows = []
    for scheduler in SCHEDULERS:
        vanilla = results[(scheduler, False)]
        desiccant = results[(scheduler, True)]
        rows.append(
            [
                scheduler,
                f"{vanilla.cold_boot_rate:.3f}",
                f"{desiccant.cold_boot_rate:.3f}",
                f"{vanilla.imbalance:.2f}",
                f"{desiccant.p99_latency:.2f}s",
            ]
        )
    print("\nAblation: 4-node cluster routing x Desiccant (SF 15):\n")
    print(
        render_table(
            ["scheduler", "cold/req vanilla", "cold/req desiccant",
             "imbalance", "p99 desiccant"],
            rows,
        )
    )
    write_csv(
        results_dir / "ablation_cluster.csv",
        ["scheduler", "cold_rate_vanilla", "cold_rate_desiccant",
         "imbalance", "p99_desiccant_s"],
        rows,
    )

    for scheduler in SCHEDULERS:
        assert (
            results[(scheduler, True)].cold_boot_rate
            <= results[(scheduler, False)].cold_boot_rate
        ), scheduler
    # Warm affinity helps the vanilla cluster...
    assert (
        results[("warm-affinity", False)].cold_boot_rate
        < results[("round-robin", False)].cold_boot_rate
    )
    # ...and the best configuration pairs it with Desiccant.
    best = min(results.values(), key=lambda s: s.cold_boot_rate)
    assert best.cold_boot_rate == results[("warm-affinity", True)].cold_boot_rate
