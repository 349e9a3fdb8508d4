"""repro.sim: the shared discrete-event simulation kernel.

* ``clock``  -- the simulated wall clock.
* ``queue``  -- stable-ordered event heap with cancellation.
* ``rng``    -- per-component seeded random streams.
* ``events`` -- typed structured events and the public kind vocabulary.
* ``bus``    -- synchronous publish/subscribe with cost aggregation.
* ``kernel`` -- :class:`SimKernel`, tying the above together; shared by
  every node of a cluster to produce one merged timeline.
* ``trace``  -- JSONL event-trace sink for offline analysis.
"""

from repro.sim.bus import EventBus, Subscription
from repro.sim.clock import Clock
from repro.sim.events import (
    COLD_BOOT,
    EVICTION,
    Event,
    FREEZE,
    GC,
    INVOCATION_END,
    RECLAIM_DONE,
    RECLAIM_START,
    REQUEST_ARRIVAL,
    REQUEST_DONE,
    SAMPLE,
    STEP,
    THAW,
    TRACE_KINDS,
)
from repro.sim.kernel import SimKernel
from repro.sim.queue import EventQueue, ScheduledEvent
from repro.sim.rng import RngStream, derive_seed
from repro.sim.trace import EventTraceSink

__all__ = [
    "Clock",
    "EventBus",
    "EventQueue",
    "EventTraceSink",
    "Event",
    "RngStream",
    "ScheduledEvent",
    "SimKernel",
    "Subscription",
    "derive_seed",
    "TRACE_KINDS",
    "REQUEST_ARRIVAL",
    "COLD_BOOT",
    "THAW",
    "INVOCATION_END",
    "FREEZE",
    "EVICTION",
    "RECLAIM_START",
    "RECLAIM_DONE",
    "GC",
    "REQUEST_DONE",
    "SAMPLE",
    "STEP",
]
