"""Keep-alive and eviction policies (§6.1's related systems).

The paper positions Desiccant as *orthogonal* to instance-keeping policies:

* plain **LRU** eviction (OpenWhisk's default behaviour here),
* **greedy-dual-size-frequency** (FaasCache): victims minimize
  ``clock + frequency * cold_cost / size`` -- cheap-to-rebuild, rarely-used,
  memory-hungry instances go first,
* a **hybrid-histogram keep-alive** (Shahrad et al.): per-function
  inter-arrival histograms size an idle window; instances idle past their
  function's window are evicted proactively, and a pre-warm can be
  scheduled just before the predicted next arrival.

Each policy implements :class:`EvictionPolicy`; the platform consults it
for victims and (for the histogram policy) for proactive timeouts.  The
per-request bookkeeping (frequencies, inter-arrival histograms) arrives
through the simulation bus: :func:`subscribe_policy` wires a policy's
``on_request`` to its node's ``request-arrival`` events, so policies are
ordinary observers -- the platform never calls them per request.
Desiccant keeps working underneath any of them -- reclaimed instances are
simply smaller, whichever order they leave the cache in.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, runtime_checkable

from repro.faas.instance import FunctionInstance, InstanceState
from repro.faas.lazyheap import LazyHeap
from repro.sim import REQUEST_ARRIVAL
from repro.sim.bus import EventBus, Subscription


def _is_frozen(instance: FunctionInstance) -> bool:
    """The heaps' membership predicate: the platform's frozen list and
    the FROZEN state are kept in lockstep (the oracle asserts it), so a
    state check is an O(1) membership test."""
    return instance.state is InstanceState.FROZEN


def _use_heap(frozen) -> bool:
    """Heap path only for the platform's versioned frozen list; plain
    lists (unit tests, keep-warm evictable sets) take the linear scan."""
    return hasattr(frozen, "adds")


class _PolicyArrivalHandler:
    """Picklable bus handler forwarding arrivals to a policy.

    A module-level class rather than a closure so the subscription can
    ride in a checkpoint (repro.sim.checkpoint) with the rest of the
    simulation graph.
    """

    __slots__ = ("policy",)

    def __init__(self, policy: "EvictionPolicy") -> None:
        self.policy = policy

    def __call__(self, event) -> None:
        self.policy.on_request(event.data["function"], event.time)


def subscribe_policy(
    policy: "EvictionPolicy", bus: EventBus, node: Optional[int] = None
) -> Subscription:
    """Attach a policy's request bookkeeping to a node's arrival events.

    Returns the subscription (unsubscribe to detach the policy).  The
    policy still serves victim queries synchronously -- only the
    *observation* path rides the bus.
    """
    handler = _PolicyArrivalHandler(policy)
    return bus.subscribe(handler, kinds=(REQUEST_ARRIVAL,), node=node)


@runtime_checkable
class EvictionPolicy(Protocol):
    """Chooses which frozen instance leaves the cache."""

    name: str

    def on_request(self, function: str, now: float) -> None:
        """Observe a request for bookkeeping (frequencies, histograms)."""

    def choose_victim(
        self, frozen: List[FunctionInstance], now: float
    ) -> Optional[FunctionInstance]:
        """Pick the instance to evict (None when nothing is evictable)."""

    def proactive_victims(
        self, frozen: List[FunctionInstance], now: float
    ) -> List[FunctionInstance]:
        """Instances to evict even without memory pressure."""


class LruEviction:
    """OpenWhisk-style least-recently-used eviction.

    Victim order is ``(last_used_at, id)`` -- the id tie-break makes the
    choice independent of the candidate list's ordering, which is what
    lets the heap and the linear scan agree bit for bit.
    """

    name = "lru"

    def __init__(self) -> None:
        self._heap = LazyHeap(_is_frozen)
        self._synced: Optional[int] = None

    def on_request(self, function: str, now: float) -> None:
        return None

    def _sync(self, frozen) -> None:
        if self._synced == frozen.adds:
            return
        for i in frozen:
            self._heap.set(i.id, (i.last_used_at, i.id), i)
        self._synced = frozen.adds

    def choose_victim(self, frozen, now):
        if not frozen:
            return None
        if _use_heap(frozen):
            self._sync(frozen)
            entry = self._heap.peek()
            return entry[1] if entry is not None else None
        return min(frozen, key=lambda i: (i.last_used_at, i.id))

    def proactive_victims(self, frozen, now):
        return []


@dataclass
class GreedyDualSizeFrequency:
    """FaasCache's priority: ``clock + freq * cost / size``.

    ``cost`` is the cold-boot latency the eviction would re-impose;
    ``size`` is the instance's actual memory footprint -- so Desiccant's
    reclamation *raises* a reclaimed instance's priority (smaller size,
    same rebuild cost), keeping cheaply-cached instances around longer.
    """

    name: str = "greedy-dual"
    clock: float = 0.0
    _frequency: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _heap: LazyHeap = field(default_factory=lambda: LazyHeap(_is_frozen))
    _synced: Optional[tuple] = None
    _requests: int = 0

    def on_request(self, function: str, now: float) -> None:
        self._frequency[function] += 1
        # Frequencies feed the priorities, so any arrival invalidates the
        # heap's keys (cheap: the resync scan skips unchanged keys).
        self._requests += 1

    def _base_priority(self, instance: FunctionInstance) -> float:
        """``freq * cost / size`` without the clock.  The clock is the
        same additive constant for every candidate of one decision, so
        both selection paths rank by this clock-free base: it preserves
        the greedy-dual ordering while keeping heap keys valid across
        aging steps (and avoids float-absorption ties the two paths
        could break differently)."""
        size = max(instance.uss(), 1)
        cost = instance.runtime.config.boot_seconds
        freq = max(self._frequency.get(instance.spec.name, 1), 1)
        return freq * cost / size

    def priority(self, instance: FunctionInstance) -> float:
        return self.clock + self._base_priority(instance)

    def _sync(self, frozen) -> None:
        fingerprint = (frozen.adds, frozen.state_version, self._requests)
        if self._synced == fingerprint:
            return
        for i in frozen:
            self._heap.set(i.id, (self._base_priority(i), i.id), i)
        self._synced = fingerprint

    def choose_victim(self, frozen, now):
        if not frozen:
            return None
        if _use_heap(frozen):
            self._sync(frozen)
            entry = self._heap.peek()
            victim = entry[1] if entry is not None else None
        else:
            victim = min(frozen, key=lambda i: (self._base_priority(i), i.id))
        if victim is not None:
            # The greedy-dual aging step: the clock rises to the evicted
            # priority, so long-cached entries eventually become evictable.
            self.clock = self.priority(victim)
        return victim

    def proactive_victims(self, frozen, now):
        return []


@dataclass
class HybridHistogramKeepAlive:
    """Shahrad et al.'s histogram policy, reduced to its keep-alive core.

    Tracks per-function inter-arrival times; a function's idle window is
    the ``percentile``-th inter-arrival observed (bounded).  Frozen
    instances idle past their window are evicted proactively -- they are
    unlikely to be reused soon, so their memory serves the cache better
    elsewhere.  Under memory pressure it falls back to evicting the
    instance with the *most* expired window (LRU-like but window-aware).
    """

    name: str = "hybrid-histogram"
    percentile: float = 0.95
    min_window: float = 10.0
    max_window: float = 600.0
    _last_arrival: Dict[str, float] = field(default_factory=dict)
    _intervals: Dict[str, List[float]] = field(default_factory=dict)
    _heap: LazyHeap = field(default_factory=lambda: LazyHeap(_is_frozen))
    _synced: Optional[int] = None
    #: base function name -> frozen members last keyed under that base,
    #: so a request (which may resize that function's window) re-keys
    #: exactly the affected members instead of invalidating the heap.
    _by_base: Dict[str, Dict[int, FunctionInstance]] = field(default_factory=dict)

    def on_request(self, function: str, now: float) -> None:
        last = self._last_arrival.get(function)
        if last is not None and now > last:
            bisect.insort(self._intervals.setdefault(function, []), now - last)
            if len(self._intervals[function]) > 512:
                self._intervals[function] = self._intervals[function][-512:]
        self._last_arrival[function] = now
        members = self._by_base.get(function)
        if members:
            stale = []
            for iid, instance in members.items():
                if instance.state is InstanceState.FROZEN:
                    self._heap.set(iid, self._deadline_key(instance), instance)
                else:
                    stale.append(iid)
            for iid in stale:
                del members[iid]

    def window(self, function: str) -> float:
        """The keep-alive window for a function."""
        intervals = self._intervals.get(function)
        if not intervals:
            return self.max_window  # out-of-histogram: keep conservatively
        rank = min(len(intervals) - 1, int(len(intervals) * self.percentile))
        return min(self.max_window, max(self.min_window, intervals[rank]))

    def _expiry(self, instance: FunctionInstance, now: float) -> float:
        """Seconds past the window (negative while still inside it)."""
        base = instance.spec.name.split(".")[0]
        return instance.frozen_for(now) - self.window(base)

    def _deadline(self, instance: FunctionInstance, now: float) -> float:
        """When the instance's keep-alive window expires.  Both selection
        paths rank by this (not by :meth:`_expiry`) so they cannot break
        float-rounding ties differently; for frozen instances it is also
        ``now``-free, which is what makes it heap-cacheable."""
        base = instance.spec.name.split(".")[0]
        if instance.frozen_since is None:
            return now + self.window(base)  # not frozen: never expired
        return instance.frozen_since + self.window(base)

    def _deadline_key(self, instance: FunctionInstance) -> tuple:
        return (self._deadline(instance, 0.0), instance.id)

    def _sync(self, frozen) -> None:
        if self._synced == frozen.adds:
            return
        for i in frozen:
            base = i.spec.name.split(".")[0]
            self._by_base.setdefault(base, {})[i.id] = i
            self._heap.set(i.id, self._deadline_key(i), i)
        self._synced = frozen.adds

    def choose_victim(self, frozen, now):
        if not frozen:
            return None
        if _use_heap(frozen):
            self._sync(frozen)
            entry = self._heap.peek()
            return entry[1] if entry is not None else None
        # Earliest deadline = most expired window (now is a common offset).
        return min(frozen, key=lambda i: (self._deadline(i, now), i.id))

    def proactive_victims(self, frozen, now):
        if _use_heap(frozen):
            self._sync(frozen)
            victims = []
            popped = []
            while True:
                entry = self._heap.peek()
                if entry is None or entry[0][0] >= now:
                    break
                popped.append(self._heap.pop())
            for key, instance in popped:
                self._heap.set(instance.id, key, instance)
                victims.append(instance)
            victims.sort(key=lambda i: i.id)
            return victims
        return sorted(
            (i for i in frozen if self._deadline(i, now) < now),
            key=lambda i: i.id,
        )
