"""Explicit run-flag propagation into worker processes.

The repo's behavioral switches -- ``REPRO_FASTPATH``, plus ``REPRO_CHECK``
and its tuning knobs; there are no others -- are read from the
environment once per process.  Under the ``fork`` start method children
inherit both the environment and the already-parsed module state, so
everything "just works"; under ``spawn`` (macOS/Windows default)
children re-import from a fresh interpreter, and -- worse -- a parent
that flipped a flag programmatically (:func:`repro.fastpath.set_enabled`,
a test monkeypatching ``os.environ`` after the module cached it)
silently runs its workers with a *different* configuration than itself.

Every process pool in the repo therefore propagates the flags
explicitly: :func:`snapshot` captures the parent's *effective*
configuration (what the parent is actually running with, not what the
environment happens to say), and :func:`initializer` re-applies it in
the child before any simulation code runs.  Shard workers
(:mod:`repro.sim.shard`) use the same pair.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from repro import fastpath

#: Flags forwarded verbatim from the parent environment when set.
_PASSTHROUGH = ("REPRO_CHECK", "REPRO_CHECK_CADENCE", "REPRO_CHECK_EVERY")


def snapshot(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The parent's effective run flags, as an env-shaped dict.

    ``REPRO_FASTPATH`` is derived from :func:`repro.fastpath.enabled`
    (the live flag), so a parent that called ``set_enabled`` ships what
    it is actually running, not a stale environment value.
    """
    env: Dict[str, str] = {"REPRO_FASTPATH": "1" if fastpath.enabled() else "0"}
    for key in _PASSTHROUGH:
        value = os.environ.get(key)
        if value is not None:
            env[key] = value
    if extra:
        env.update(extra)
    return env


def apply(env: Dict[str, str]) -> None:
    """Adopt a snapshot in the current process (worker side).

    Writes the flags into ``os.environ`` (so late readers agree) and
    resets the fastpath module's cached state to match.
    """
    for key, value in env.items():
        os.environ[key] = value
    fastpath.set_enabled(env.get("REPRO_FASTPATH", "1") not in ("", "0"))


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
