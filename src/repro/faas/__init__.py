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

from repro.faas.cgroup import CpuAccountant, weighted_cpu_seconds
from repro.faas.instance import FunctionInstance, InstanceState, runtime_for
from repro.faas.libraries import SharedLibraryPool
from repro.faas.platform import (
    FaasPlatform,
    ManagerBridge,
    PlatformConfig,
    RequestOutcome,
)
from repro.faas.lambda_platform import LambdaPlatform
from repro.faas.cluster import Cluster, ClusterConfig, ClusterStats
from repro.faas.keepalive import (
    GreedyDualSizeFrequency,
    HybridHistogramKeepAlive,
    LruEviction,
    subscribe_policy,
)
from repro.faas.probe import ProbeReport, probe_idle_semantics
from repro.faas.telemetry import TelemetryRecorder, bucket_means, sparkline

__all__ = [
    "CpuAccountant",
    "weighted_cpu_seconds",
    "FunctionInstance",
    "InstanceState",
    "runtime_for",
    "SharedLibraryPool",
    "FaasPlatform",
    "ManagerBridge",
    "PlatformConfig",
    "RequestOutcome",
    "LambdaPlatform",
    "Cluster",
    "ClusterConfig",
    "ClusterStats",
    "GreedyDualSizeFrequency",
    "HybridHistogramKeepAlive",
    "LruEviction",
    "subscribe_policy",
    "ProbeReport",
    "probe_idle_semantics",
    "TelemetryRecorder",
    "bucket_means",
    "sparkline",
]
