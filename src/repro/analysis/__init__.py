"""Characterization harnesses and report rendering for the experiments."""

from repro._lazy import export

__all__ = export(
    __name__,
    {
        "repro.analysis.characterize": (
            "POLICIES",
            "SingleInstanceRun",
            "run_concurrent_instances",
            "run_overhead_experiment",
            "run_single",
        ),
        "repro.analysis.report": ("render_table", "write_csv"),
    },
)
