"""The simulation kernel: one clock, one event heap, one bus.

A :class:`SimKernel` is the shared spine of every simulation in this
repo.  Components (platform nodes, routers, recorders) *schedule*
callbacks on the kernel's :class:`~repro.sim.queue.EventQueue` and
*observe* each other through its :class:`~repro.sim.bus.EventBus`;
nobody owns a private loop.  A cluster shard hands the same kernel to
every node it hosts, which merges their timelines into one globally
time-ordered execution; across shards, the coordinator keeps kernels in
step with conservative epochs (:mod:`repro.sim.shard`).

Per-component randomness comes from :meth:`rng`, which hands out named
:class:`~repro.sim.rng.RngStream` instances derived from the kernel
seed, so components cannot perturb each other's draws.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.sim.bus import EventBus
from repro.sim.clock import Clock
from repro.sim.queue import EventQueue, ScheduledEvent
from repro.sim.rng import RngStream


class SimKernel:
    """Discrete-event engine shared by every component of a simulation."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.clock = Clock()
        self.queue = EventQueue()
        self.bus = EventBus()
        self._rngs: Dict[str, RngStream] = {}
        self._probes: List[Callable[[], None]] = []
        #: Total events dispatched over the kernel's lifetime.
        self.events_processed = 0

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        return self.clock.now

    # ------------------------------------------------------------ scheduling

    def schedule(
        self,
        time: float,
        callback: Callable[[Any], None],
        payload: Any = None,
    ) -> ScheduledEvent:
        """Run ``callback(payload)`` at simulated ``time``.

        Returns a handle whose :meth:`~repro.sim.queue.ScheduledEvent.cancel`
        drops the event before it fires.
        """
        return self.queue.push(time, callback, payload)

    def rng(self, component: str) -> RngStream:
        """The named component's private random stream (memoized)."""
        stream = self._rngs.get(component)
        if stream is None:
            stream = self._rngs[component] = RngStream(self.seed, component)
        return stream

    # ---------------------------------------------------------------- probes

    def add_probe(self, probe: Callable[[], None]) -> Callable[[], None]:
        """Call ``probe()`` after *every* dispatched event.

        This is the invariant oracle's per-event hook point
        (:mod:`repro.check`): unlike a bus subscription it fires even for
        events that publish nothing.  Returns ``probe`` as the handle for
        :meth:`remove_probe`.
        """
        self._probes.append(probe)
        return probe

    def remove_probe(self, probe: Callable[[], None]) -> None:
        self._probes.remove(probe)

    # --------------------------------------------------------------- running

    def run(self, until: Optional[float] = None) -> int:
        """Dispatch events in ``(time, seq)`` order until the queue drains.

        With ``until``, stops *before* the first event past it (the event
        stays queued for a later ``run``).  Returns the number of events
        dispatched by this call.
        """
        dispatched = 0
        while True:
            next_time = self.queue.next_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            event = self.queue.pop()
            if event is None:  # pragma: no cover - raced cancellation
                break
            self.clock.advance(event.time)
            event.callback(event.payload)
            for probe in self._probes:
                probe()
            dispatched += 1
        self.events_processed += dispatched
        return dispatched
