"""Azure-Functions-style trace substrate (§5.3).

The paper replays inter-arrival patterns of 20 production functions
(selected by execution-time similarity) against the Table 1 suite, with a
*scale factor* that divides inter-arrival times.  The real trace is not
shippable here; :mod:`generator` synthesizes arrival processes with the
same statistical shape (heavy-tailed popularity, a mix of periodic and
Poisson/bursty triggers, per Shahrad et al.), and :mod:`replay` drives the
platform through warmup + measurement windows.
"""

from repro._lazy import export

__all__ = export(
    __name__,
    {
        "repro.trace.archive": (
            "ArchiveReader",
            "ArchiveWriter",
            "finalize_archive",
            "pack",
        ),
        "repro.trace.generator": ("FunctionArrivalSpec", "TraceGenerator"),
        "repro.trace.replay": (
            "ReplayConfig",
            "ReplayResult",
            "replay",
        ),
        "repro.trace.stats": ("ReplayStats", "percentile"),
    },
)
