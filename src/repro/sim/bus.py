"""The typed event bus.

Observers subscribe by event kind (and optionally by node), publishers
call :meth:`EventBus.publish`.  Publication is synchronous and ordered:
handlers run in subscription order, and any numeric value a handler
returns is summed into the publish result -- that is how memory-manager
hooks report the CPU seconds they consumed back to the platform without
the platform calling them directly.

Handlers may publish further events re-entrantly (e.g. a manager bridge
emitting ``reclaim-done`` from inside a ``step``).  Dispatch is
run-to-completion: a nested publish gets the next sequence number but is
queued and delivered only after the outer event's handlers all finish, so
*every* subscriber -- whatever its subscription order -- observes events
in sequence order.  A nested publish therefore returns 0.0 (its handlers
have not run yet); only top-level publishes report handler costs.

Subscriptions live in buckets keyed ``(kind, node)`` (``None`` =
wildcard); a publish merges the four matching buckets back into
subscription order, caches the merged list per ``(kind, node)``, and
invalidates the cache on subscribe or unsubscribe.  Unsubscribe compacts
the buckets, so dead handlers are never scanned again.
:meth:`EventBus.publish_lazy` additionally skips *building* events nobody
listens to -- while still consuming a sequence number, so traces stay
byte-identical whether or not a sink happens to be attached for other
kinds.

Handler *order* is the observable: the bus calls handlers in exactly the
sequence one flat scan of the subscription list would (the reference
scan lives in ``tests/oracles.py``), so the floating-point sum of their
returned costs -- and therefore every downstream trace byte -- is fixed.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.events import Event

Handler = Callable[[Event], Optional[float]]

#: Data factory for :meth:`EventBus.publish_lazy`.
DataFactory = Callable[[], dict]


class Subscription:
    """Handle returned by ``subscribe``; use to unsubscribe.

    ``order`` is the bus-wide subscription counter: the bus merges its
    buckets by it to reproduce exactly the dispatch order a single flat
    list would have had.
    """

    __slots__ = ("handler", "kinds", "node", "active", "order")

    def __init__(
        self,
        handler: Handler,
        kinds: Optional[frozenset],
        node: Optional[int],
        order: int = 0,
    ) -> None:
        self.handler = handler
        self.kinds = kinds
        self.node = node
        self.active = True
        self.order = order


_BucketKey = Tuple[Optional[str], Optional[int]]


class EventBus:
    """Indexed publish/subscribe: O(matching handlers) per event.

    Subscriptions are bucketed under every ``(kind, node)`` pair they
    match (``None`` standing for "any"), so a publish touches only the
    four buckets that can match it instead of the whole list.  The merged
    per-``(kind, node)`` dispatch list is cached and invalidated whenever
    the subscription set changes; ``unsubscribe`` removes the handler
    from its buckets outright (no tombstones to re-scan).
    ``_subscriptions`` keeps every live subscription in order (cheap, and
    it keeps introspection working) but is never scanned on the hot path.
    """

    def __init__(self) -> None:
        self._subscriptions: List[Subscription] = []
        # Plain ints, not itertools.count: both counters are part of the
        # bus's checkpointable state (repro.sim.checkpoint) and must
        # pickle with their positions intact.
        self._order = 0
        self._seq = 0
        self._pending: deque[Event] = deque()
        self._dispatching = False
        self._buckets: Dict[_BucketKey, List[Subscription]] = {}
        self._dispatch_cache: Dict[Tuple[str, int], List[Subscription]] = {}

    def _next_order(self) -> int:
        order = self._order
        self._order += 1
        return order

    def _bucket_keys(self, subscription: Subscription) -> List[_BucketKey]:
        kinds: Iterable[Optional[str]] = (
            sorted(subscription.kinds) if subscription.kinds is not None else (None,)
        )
        return [(kind, subscription.node) for kind in kinds]

    def subscribe(
        self,
        handler: Handler,
        kinds: Optional[Iterable[str]] = None,
        node: Optional[int] = None,
    ) -> Subscription:
        """Register ``handler`` for ``kinds`` (all kinds when None) on
        ``node`` (all nodes when None)."""
        subscription = Subscription(
            handler,
            frozenset(kinds) if kinds is not None else None,
            node,
            self._next_order(),
        )
        self._subscriptions.append(subscription)
        for key in self._bucket_keys(subscription):
            self._buckets.setdefault(key, []).append(subscription)
        self._dispatch_cache.clear()
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        subscription.active = False
        if subscription not in self._subscriptions:
            return
        self._subscriptions.remove(subscription)
        for key in self._bucket_keys(subscription):
            bucket = self._buckets.get(key)
            if bucket is None:
                continue
            if subscription in bucket:
                bucket.remove(subscription)
            if not bucket:
                del self._buckets[key]
        self._dispatch_cache.clear()

    def has_subscribers(self, kind: str, node: int = 0) -> bool:
        """Whether a ``(kind, node)`` event would reach any handler."""
        buckets = self._buckets
        return bool(
            buckets.get((kind, node))
            or buckets.get((kind, None))
            or buckets.get((None, node))
            or buckets.get((None, None))
        )

    def publish(self, event: Event) -> float:
        """Deliver ``event``; returns the sum of numeric handler returns
        (CPU seconds the observers consumed).

        Re-entrant publishes are deferred until the current dispatch
        completes (and return 0.0), keeping delivery in seq order for
        every subscriber.
        """
        event.seq = self._seq
        self._seq += 1
        if self._dispatching:
            self._pending.append(event)
            return 0.0
        self._dispatching = True
        try:
            total = self._dispatch(event)
            while self._pending:
                self._dispatch(self._pending.popleft())
        finally:
            self._dispatching = False
        return total

    def publish_lazy(
        self,
        kind: str,
        time: float,
        node: int = 0,
        data_factory: Optional[DataFactory] = None,
    ) -> float:
        """Build and publish a ``(kind, node)`` event only if someone
        listens; otherwise just consume a sequence number.

        Skipped events still burn their seq so the numbering of *traced*
        events is identical whether or not untraced kinds were skipped --
        the byte-identity guarantee of docs/EVENT_TRACE.md depends on it.
        """
        if not self.has_subscribers(kind, node):
            self._seq += 1
            return 0.0
        data = data_factory() if data_factory is not None else {}
        return self.publish(Event(kind, time, node, data))

    def _dispatch_list(self, kind: str, node: int) -> List[Subscription]:
        cached = self._dispatch_cache.get((kind, node))
        if cached is None:
            merged: List[Subscription] = []
            for key in ((kind, node), (kind, None), (None, node), (None, None)):
                merged.extend(self._buckets.get(key, ()))
            merged.sort(key=lambda subscription: subscription.order)
            cached = self._dispatch_cache[(kind, node)] = merged
        return cached

    def _dispatch(self, event: Event) -> float:
        total = 0.0
        # The cached list is the snapshot: a handler unsubscribing
        # mid-dispatch clears the cache but leaves this reference intact,
        # and the removed subscription is skipped via ``active`` -- the
        # same semantics a flat scan gets from copying its list.
        for subscription in self._dispatch_list(event.kind, event.node):
            if subscription.active:
                result = subscription.handler(event)
                if isinstance(result, (int, float)) and not isinstance(result, bool):
                    total += result
        return total

    def __getstate__(self) -> dict:
        # The merged dispatch cache is a pure index over the buckets;
        # shipping it in a checkpoint would restore stale Subscription
        # references.  Drop it and let the first post-restore publish
        # rebuild it from the buckets.
        state = dict(self.__dict__)
        state["_dispatch_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._dispatch_cache = {}
