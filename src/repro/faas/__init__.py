"""FaaS platform substrate: instances, freeze/thaw, caching, eviction.

* ``libraries`` -- the machine-wide shared page cache for language runtime
  libraries (OpenWhisk-style container image sharing).
* ``cgroup``    -- CPU-time accounting, including the §4.5.2 share-weighted
  accumulation Desiccant uses for reclamation profiles.
* ``instance``  -- one container: a managed runtime plus freeze semantics.
* ``platform``  -- the OpenWhisk-like platform: routing, instance cache,
  memory-pressure eviction, cold/warm boots, and policy hooks.
* ``lambda_platform`` -- the AWS-Lambda-like variant (no page sharing).
* ``keepalive`` -- §6.1 keep-alive/eviction policies (LRU, FaasCache-style
  greedy-dual, Shahrad-style hybrid histogram).
* ``cluster``   -- a multi-node front-end router over invoker nodes,
  sharded across :mod:`repro.sim` kernels in conservative epochs.
* ``probe``     -- the §2.1 heartbeat experiment detecting idle semantics.
* ``telemetry`` -- time-series recording of cache pressure and reclaims.

Platform, managers, keep-alive policies, and telemetry all communicate
through the kernel's event bus; see :mod:`repro.sim`.
"""

from repro._lazy import export

__all__ = export(
    __name__,
    {
        "repro.faas.cgroup": ("CpuAccountant", "weighted_cpu_seconds"),
        "repro.faas.instance": ("FunctionInstance", "InstanceState", "runtime_for"),
        "repro.faas.libraries": ("SharedLibraryPool",),
        "repro.faas.platform": (
            "FaasPlatform",
            "ManagerBridge",
            "PlatformConfig",
            "RequestOutcome",
        ),
        "repro.faas.lambda_platform": ("LambdaPlatform",),
        "repro.faas.cluster": ("Cluster", "ClusterConfig", "ClusterStats"),
        "repro.faas.keepalive": (
            "GreedyDualSizeFrequency",
            "HybridHistogramKeepAlive",
            "LruEviction",
            "subscribe_policy",
        ),
        "repro.faas.probe": ("ProbeReport", "probe_idle_semantics"),
        "repro.faas.telemetry": ("TelemetryRecorder", "bucket_means", "sparkline"),
    },
)
