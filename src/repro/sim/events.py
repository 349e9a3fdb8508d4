"""Structured simulation events.

Everything observable about a run flows through these: the platform and
its components publish :class:`Event` records on the kernel's
:class:`~repro.sim.bus.EventBus`, and observers (memory managers,
telemetry, trace sinks, the cluster front-end) subscribe by kind.

Public kinds (the JSONL trace schema in ``docs/EVENT_TRACE.md``):

====================  =======================================================
kind                  meaning / data fields
====================  =======================================================
``request-arrival``   a request entered the node (``request_id, function``)
``cold-boot``         a new container booted (``instance_id, function,
                      boot_cpu_seconds``)
``thaw``              a frozen container was unpaused (``instance_id,
                      function, thaw_seconds``)
``invocation-end``    a stage was dispatched, stamped at its start: its work
                      is simulated, its wall time has not elapsed; the stage
                      ends when its instance is released, at its ``freeze``
                      under the default idle policy (``instance_id,
                      function, request_id, cpu_seconds``)
``freeze``            a container was paused (``instance_id, function``)
``eviction``          the cache destroyed a container (``instance_id,
                      function, freed_bytes``)
``reclaim-start``     a manager sweep began doing work (``frozen_bytes``)
``reclaim-done``      ...and finished (``cpu_seconds, released_bytes``)
``gc``                a collection ran outside normal allocation pressure
                      (``instance_id, function, cpu_seconds, reason``)
``request-done``      the whole request (all stages) completed
                      (``request_id, function, latency, cold_boots``)
``sample``            a telemetry snapshot (the recorder's sample fields)
====================  =======================================================

One internal kind, ``step``, fires after every platform event; it carries
the per-event hook cadence (manager background sweeps, telemetry sampling)
and is excluded from traces by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

REQUEST_ARRIVAL = "request-arrival"
COLD_BOOT = "cold-boot"
THAW = "thaw"
INVOCATION_END = "invocation-end"
FREEZE = "freeze"
EVICTION = "eviction"
RECLAIM_START = "reclaim-start"
RECLAIM_DONE = "reclaim-done"
GC = "gc"
REQUEST_DONE = "request-done"
SAMPLE = "sample"
STEP = "step"

#: Kinds a default trace sink records (everything public).
TRACE_KINDS: Tuple[str, ...] = (
    REQUEST_ARRIVAL,
    COLD_BOOT,
    THAW,
    INVOCATION_END,
    FREEZE,
    EVICTION,
    RECLAIM_START,
    RECLAIM_DONE,
    GC,
    REQUEST_DONE,
    SAMPLE,
)


@dataclass
class Event:
    """One structured occurrence on the bus.

    ``data`` may hold both plain scalars (serialized into traces) and
    live object references (e.g. the :class:`FunctionInstance` a manager
    hook needs); trace sinks keep only the scalars.
    """

    kind: str
    time: float
    node: int = 0
    data: Dict[str, Any] = field(default_factory=dict)
    #: Publication order, assigned by the bus; ties in ``time`` resolve
    #: by ``seq`` in traces.
    seq: int = -1

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)
