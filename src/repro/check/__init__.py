"""repro.check: the invariant-oracle layer and the simulation fuzzer.

The simulator's conclusions (Figures 1/2/4, Desiccant's reclaimed-bytes
accounting) rest on conservation laws the core layers must never violate:
run-list well-formedness, global frame counts, smaps RSS/PSS/USS
consistency, heap live-vs-committed bounds, instance state-machine
legality, and major-fault/swap-in parity.  This package turns those laws
into machine-checked invariants:

* ``invariants`` -- pure check functions over one object each (a
  :class:`~repro.mem.runlist.RunList`, a mapping, an address space, a
  :class:`~repro.mem.physical.PhysicalMemory` with its spaces, a runtime,
  an instance, a platform).  Each raises :class:`Violation` with a stable
  invariant name.
* ``oracle``     -- :class:`InvariantOracle`, which registers the live
  objects of a simulation, subscribes to the :mod:`repro.sim` event bus
  (or the kernel's probe hook), and re-checks everything at a
  configurable cadence.  ``REPRO_CHECK=1`` wires an oracle into every
  :class:`~repro.faas.platform.FaasPlatform` automatically, which is how
  the tier-1 end-to-end tests exercise it continuously.
* ``fuzz``       -- the deterministic fuzz harness behind ``repro fuzz``:
  seeded randomized mmap/touch/GC/freeze/reclaim/evict/replay schedules,
  executed with the oracle enabled, shrunk to a minimal op sequence on
  violation, and written as a replayable ``.jsonl`` case file.
* ``shrink``     -- the ddmin-style sequence shrinker ``fuzz`` uses.

See ``docs/TESTING.md`` for the workflow (including how to add a new
invariant).
"""

from repro._lazy import export

__all__ = export(
    __name__,
    {
        "repro.check.invariants": (
            "Violation",
            "check_archive_writer",
            "check_checkpoint",
            "check_file",
            "check_instance",
            "check_mapping",
            "check_physical",
            "check_platform",
            "check_runlist",
            "check_runtime",
            "check_segment_manifest",
            "check_shard_conservation",
            "check_smaps",
            "check_space",
            "check_trace_archive",
        ),
        "repro.check.oracle": (
            "InvariantOracle",
            "OracleConfig",
            "maybe_attach_oracle",
        ),
    },
)
