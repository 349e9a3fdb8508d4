"""repro: a from-scratch reproduction of *Characterization and Reclamation
of Frozen Garbage in Managed FaaS Workloads* (EuroSys '24) -- the Desiccant
freeze-aware memory manager -- over simulated substrates.

Layers (bottom up):

* :mod:`repro.mem`      -- page-granular virtual memory with USS/RSS/PSS.
* :mod:`repro.sim`      -- the discrete-event kernel (clock, event heap,
  typed event bus, per-component RNG streams, JSONL trace sink).
* :mod:`repro.runtime`  -- HotSpot, V8, and CPython runtime simulators.
* :mod:`repro.workloads`-- the Table 1 function suite.
* :mod:`repro.faas`     -- the OpenWhisk/Lambda-like platforms, hosted on
  the sim kernel.
* :mod:`repro.trace`    -- Azure-style trace generation and replay.
* :mod:`repro.core`     -- Desiccant itself plus the evaluation baselines.
* :mod:`repro.analysis` -- characterization harnesses and reporting.

Quickstart::

    from repro import run_single
    run = run_single("fft", policy="desiccant")
    print(run.final_uss, run.final_ideal)
"""

from repro._lazy import export

__version__ = "1.0.0"

__all__ = [
    *export(
        __name__,
        {
            "repro.analysis": (
                "run_concurrent_instances",
                "run_overhead_experiment",
                "run_single",
            ),
            "repro.core": (
                "ActivationController",
                "Desiccant",
                "DesiccantConfig",
                "EagerGcManager",
                "ProfileStore",
                "SwapManager",
                "VanillaManager",
                "estimated_throughput",
                "reclaim_instance",
            ),
            "repro.faas": (
                "FaasPlatform",
                "FunctionInstance",
                "LambdaPlatform",
                "PlatformConfig",
                "SharedLibraryPool",
            ),
            "repro.faas.platform": ("Request",),
            "repro.sim": ("EventBus", "EventTraceSink", "RngStream", "SimKernel"),
            "repro.runtime": (
                "CPythonRuntime",
                "HotSpotRuntime",
                "ManagedRuntime",
                "V8Runtime",
            ),
            "repro.trace": ("ReplayConfig", "TraceGenerator", "replay"),
            "repro.workloads": (
                "all_definitions",
                "definitions_by_language",
                "get_definition",
            ),
        },
    ),
    "__version__",
]
