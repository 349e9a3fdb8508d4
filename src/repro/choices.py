"""The names the simulator's configs and command line accept.

The command line builds its parser from these before it knows which
subcommand runs, so this module imports nothing: listing a choice never
loads the cluster engine or the characterization harness.
"""

#: Memory-manager policies: vanilla, eager GC, and Desiccant.
POLICIES = ("vanilla", "eager", "desiccant")

#: Cluster front-end schedulers (see :mod:`repro.faas.cluster`).
SCHEDULERS = ("round-robin", "least-assigned", "warm-affinity")
