"""Explicit run-flag propagation into worker processes, and the wall clock.

The repo's only behavioral switches are ``REPRO_CHECK`` and its tuning
knobs.  A platform reads them from ``os.environ`` when it is built, so a
worker must see the parent's *current* environment.  ``fork`` and
``spawn`` children start with it, but a ``forkserver`` child (the Linux
default from Python 3.14) inherits the environment the server was
started with -- not whatever the parent set since, such as a test that
turned ``REPRO_CHECK`` on after the first pool started.

Every process pool in the repo therefore propagates the flags
explicitly: :func:`snapshot` captures the parent's flags, and
:func:`initializer` re-applies them in the child before any simulation
code runs.  Shard workers (:mod:`repro.sim.shard`) use the same pair.

:func:`wall_clock` is the module's other job: the one sanctioned
host-time read for process-level instrumentation.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

#: Flags forwarded verbatim from the parent environment when set.
_PASSTHROUGH = ("REPRO_CHECK", "REPRO_CHECK_CADENCE", "REPRO_CHECK_EVERY")


def snapshot(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The parent's run flags, as an env-shaped dict."""
    env: Dict[str, str] = {}
    for key in _PASSTHROUGH:
        value = os.environ.get(key)
        if value is not None:
            env[key] = value
    if extra:
        env.update(extra)
    return env


def apply(env: Dict[str, str]) -> None:
    """Adopt a snapshot in the current process (worker side).

    Writes the flags into ``os.environ``, where platforms read them.
    """
    for key, value in env.items():
        os.environ[key] = value


def initializer(env: Dict[str, str]) -> None:
    """``ProcessPoolExecutor(initializer=...)`` entry point."""
    apply(env)


def wall_clock() -> float:
    """Monotonic wall-clock seconds, for *process-level* instrumentation.

    The sanctioned wall-clock read outside the bench harness: shard
    workers time their busy intervals with it (the ``coordination_overhead``
    metric is coordinator wall minus max worker busy wall), and the
    coordinator times its own loop.  It measures the host machine, never
    simulated state -- no simulation decision may depend on it, which is
    why this module (not simulation code) owns it and why the
    determinism lint exempts exactly this file.
    """
    return time.perf_counter()
