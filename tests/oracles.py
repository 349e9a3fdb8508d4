"""Test-only reference implementations: the differential oracles.

Production runs one implementation of each hot structure: the indexed
event bus, the platform's incremental USS aggregates and versioned
frozen list, the runtimes' measurement caches, and cohort and stream
allocation.  The obviously correct versions they replaced live here,
where the tests that pin the fast structures to them can reach them:

* :class:`LinearEventBus` -- every publish scans the one flat
  subscription list;
* :func:`scalar_alloc_cohort` and :func:`scalar_alloc_stream` -- every
  member of a run, or of an invocation's whole allocation stream, goes
  through the scalar ``alloc`` in stream order;
* :func:`reference_touch_cohort_segment` -- a cohort touch billed by
  walking the members one by one, one ``_charge_faults`` call per
  faulting member (production walks the fault runs instead);
* :func:`reference_merge_trace_lines` -- the canonical trace merge with
  every line's ``(t, node, seq)`` key read by ``json.loads``
  (production reads the key off the line's envelope);
* :func:`reference_segment_bytes` -- an archive segment framed by
  ``gzip.GzipFile``, one member per write session (production frames the
  payload member by hand around a raw deflate stream);
* :func:`reference_cold_starts` -- one function's cold/warm verdicts from
  arrival and finish times alone, with no memory model (the platform
  simulates every instance);
* :func:`reference_paths` -- installs the summing, uncached and scalar
  paths on the platform and the runtimes, plus the linear bus on every
  kernel built afterwards.  With it installed ``frozen_instances``
  returns a plain list, which by itself sends the eviction policies
  down their linear paths.

A run under :func:`reference_paths` must stream the same event trace,
byte for byte, as the same run in production form
(``tests/trace/test_reference_parity.py``).
"""

from __future__ import annotations

import gzip
import heapq
import io
import json
from typing import Iterable, Iterator, List, Sequence, Tuple

import repro.sim.kernel
from repro.faas.instance import FunctionInstance, InstanceState
from repro.faas.platform import FaasPlatform
from repro.mem.accounting import measure, measure_mapping
from repro.mem.layout import PAGE_SHIFT, page_ceil, page_floor
from repro.mem.vmm import FaultCounts, PageState
from repro.runtime.base import ManagedRuntime
from repro.sim.bus import EventBus, Subscription
from repro.sim.events import Event


def _matches(subscription: Subscription, kind: str, node: int) -> bool:
    if not subscription.active:
        return False
    if subscription.kinds is not None and kind not in subscription.kinds:
        return False
    return subscription.node is None or subscription.node == node


class LinearEventBus(EventBus):
    """Synchronous publish/subscribe by flat scan (reference).

    Every publish scans the full subscription list.  O(subscriptions)
    per event, trivially correct -- the behavior :class:`EventBus` must
    reproduce bit for bit.  Sequencing and the run-to-completion pending
    queue are inherited; only subscription bookkeeping and matching
    differ.
    """

    def subscribe(self, handler, kinds=None, node=None) -> Subscription:
        subscription = Subscription(
            handler,
            frozenset(kinds) if kinds is not None else None,
            node,
            self._next_order(),
        )
        self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        subscription.active = False
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)

    def has_subscribers(self, kind: str, node: int = 0) -> bool:
        return any(_matches(s, kind, node) for s in self._subscriptions)

    def _dispatch(self, event: Event) -> float:
        total = 0.0
        for subscription in list(self._subscriptions):
            if _matches(subscription, event.kind, event.node):
                result = subscription.handler(event)
                if isinstance(result, (int, float)) and not isinstance(result, bool):
                    total += result
        return total


# ------------------------------------------------------- platform paths


def _untracked(self: FaasPlatform, instance: FunctionInstance) -> None:
    """No incremental bookkeeping: every query below sums afresh."""


def _frozen_instances(self: FaasPlatform) -> List[FunctionInstance]:
    return [i for i in self.all_instances() if i.state is InstanceState.FROZEN]


def _frozen_bytes(self: FaasPlatform) -> int:
    return sum(i.uss() for i in self.frozen_instances())


def _used_bytes(self: FaasPlatform) -> int:
    return sum(i.uss() for i in self.all_instances())


def _frozen_capacity_bytes(self: FaasPlatform) -> int:
    active = sum(
        i.uss()
        for i in self.all_instances()
        if i.state in (InstanceState.RUNNING, InstanceState.IDLE)
    )
    return max(1, self.capacity_bytes - self.config.instance_memory - active)


def _eager_emit(self: FaasPlatform, kind: str, **data) -> float:
    return self.bus.publish(Event(kind, self.now, self.node_id, data))


# -------------------------------------------------------- runtime paths


def _uncached_uss(self: ManagedRuntime) -> int:
    return measure(self.space).uss


def _uncached_heap_resident_bytes(self: ManagedRuntime) -> int:
    return sum(measure_mapping(m).rss for m in self._heap_mappings())


def scalar_alloc_cohort(
    self: ManagedRuntime, count: int, unit: int, scope: str = "frame"
) -> List[int]:
    """:meth:`ManagedRuntime.alloc_cohort` as ``count`` scalar allocs."""
    self._check_booted()
    return [self.alloc(unit, scope=scope) for _ in range(count)]


def scalar_alloc_stream(
    self: ManagedRuntime, runs: Sequence[Tuple[str, int, int]]
) -> None:
    """:meth:`ManagedRuntime.alloc_stream` as one scalar alloc per member,
    in stream order."""
    self._check_booted()
    for scope, unit, count in runs:
        for _ in range(count):
            self.alloc(unit, scope=scope)


def reference_touch_cohort_segment(
    self: ManagedRuntime, addr: int, unit: int, members: int, floor: int = 0
) -> FaultCounts:
    """:meth:`ManagedRuntime._touch_cohort_segment` billed member by
    member: each faulting page goes to the first member whose page-aligned
    span covers it, and each faulting member makes one ``_charge_faults``
    call, in member order."""
    lo = max(page_floor(addr), floor)
    hi = page_ceil(addr + members * unit)
    if hi <= lo:
        return FaultCounts()
    # Runs of pages the touch will fault, as absolute page numbers.
    faults: List[Tuple[int, int, bool]] = []
    pos = lo
    while pos < hi:
        mapping = self.space.find_mapping(pos)
        if mapping is None:
            break  # the touch below raises SegmentationFault
        end = min(hi, mapping.end)
        base = mapping.start >> PAGE_SHIFT
        first = (pos - mapping.start) >> PAGE_SHIFT
        last = (end - mapping.start) >> PAGE_SHIFT
        for s, e, state in mapping.segments(first, last):
            if state is not PageState.ANON_DIRTY:
                faults.append((base + s, base + e, state is PageState.SWAPPED))
        pos = end
    counts = self.space.touch(lo, hi - lo)
    # Member j covers pages [done, page_ceil(end of member j)).
    done = lo >> PAGE_SHIFT
    i, n = 0, len(faults)
    end = addr
    for _ in range(members):
        if i == n:
            break  # every faulting page is billed
        end += unit
        m_hi = page_ceil(end) >> PAGE_SHIFT
        if m_hi <= done:
            continue
        minor = major = 0
        while i < n:
            s, e, swapped = faults[i]
            if s >= m_hi:
                break
            pages = min(e, m_hi) - max(s, done)
            if swapped:
                major += pages
            else:
                minor += pages
            if e > m_hi:
                break
            i += 1
        done = m_hi
        if minor or major:
            self._charge_faults(minor, major)
    return counts


def _keyed_lines(lines: Iterable[str]) -> Iterator[Tuple[Tuple[float, int, int], str]]:
    for line in lines:
        record = json.loads(line)
        yield (record["t"], record["node"], record["seq"]), line


def reference_merge_trace_lines(sources: Sequence[Iterable[str]]) -> Iterator[str]:
    """The archive's per-bucket merge of node-sorted line streams
    (:meth:`repro.trace.archive.ArchiveReader.iter_window`) with each key
    parsed by ``json.loads``: one ``heapq.merge`` over ``(key, line)``
    pairs."""
    for _, line in heapq.merge(
        *[_keyed_lines(source) for source in sources], key=lambda pair: pair[0]
    ):
        yield line


def reference_segment_bytes(payload_chunks: Iterable[bytes], footer: bytes) -> bytes:
    """A segment file's bytes as ``gzip.GzipFile(filename="", mtime=0,
    compresslevel=COMPRESSLEVEL)`` writes them: the payload member, fed
    ``payload_chunks`` in order, then the footer member."""
    from repro.trace.archive import COMPRESSLEVEL

    raw = io.BytesIO()
    for chunks in (payload_chunks, [footer]):
        with gzip.GzipFile(
            filename="", mode="wb", fileobj=raw, compresslevel=COMPRESSLEVEL, mtime=0
        ) as member:
            for chunk in chunks:
                member.write(chunk)
    return raw.getvalue()


def reference_cold_starts(
    arrivals: Sequence[float], finishes: Sequence[float], keep_alive: float
) -> List[bool]:
    """Whether each request of one function starts cold, with memory
    unlimited and a fixed keep-alive window.

    Request ``k`` arrives at ``arrivals[k]`` (nondecreasing) and finishes
    at ``finishes[k]``.  On each arrival at ``t``: every instance whose
    request finished by ``t`` is idle; idle instances with ``finished +
    keep_alive < t`` are gone; the idle instance that finished last
    serves the request (warm), or a new instance boots (cold).  Each
    instance is known by its last request's finish time.
    """
    busy: List[float] = []
    idle: List[float] = []
    cold: List[bool] = []
    for t, finished in zip(arrivals, finishes):
        idle += [f for f in busy if f <= t]
        busy = [f for f in busy if f > t]
        idle = [f for f in idle if f + keep_alive >= t]
        cold.append(not idle)
        if idle:
            idle.remove(max(idle))
        busy.append(finished)
    return cold


def reference_paths(monkeypatch) -> None:
    """Install every reference path through ``monkeypatch``.

    The platform and runtime paths are patched on their classes, so they
    hold for every call while the patch does; a kernel picks its bus when
    it is built.  Undo the patch (end of test, or leave a
    ``MonkeyPatch.context()``) before running the production side of a
    comparison.
    """
    monkeypatch.setattr(repro.sim.kernel, "EventBus", LinearEventBus)
    for name, reference in (
        ("_register_instance", _untracked),
        ("_unregister_instance", _untracked),
        ("frozen_instances", _frozen_instances),
        ("frozen_bytes", _frozen_bytes),
        ("used_bytes", _used_bytes),
        ("frozen_capacity_bytes", _frozen_capacity_bytes),
        ("_emit", _eager_emit),
    ):
        monkeypatch.setattr(FaasPlatform, name, reference)
    for name, reference in (
        ("uss", _uncached_uss),
        ("heap_resident_bytes", _uncached_heap_resident_bytes),
        ("alloc_cohort", scalar_alloc_cohort),
        ("alloc_stream", scalar_alloc_stream),
    ):
        monkeypatch.setattr(ManagedRuntime, name, reference)
