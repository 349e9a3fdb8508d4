"""Instance selection by estimated reclamation throughput (§4.3, §4.5.2).

Two principles: only instances frozen longer than a timeout are candidates
(they keep wasting memory), and among those Desiccant prefers the largest

    Throughput = (Mem_heap - Estimated_live_bytes) / Estimated_CPU_time

where ``Mem_heap`` is the instance's current in-heap resident memory (what
``pmap`` over the registered heap range reports) and the estimates come
from :class:`~repro.core.profiles.ProfileStore`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.core.profiles import ProfileStore
from repro.faas.instance import FunctionInstance, InstanceState

#: Floor for the CPU-time estimate so a zero-cost profile cannot produce an
#: infinite throughput.
MIN_CPU_SECONDS = 1e-4


def estimated_throughput(
    heap_resident_bytes: int,
    estimated_live_bytes: float,
    estimated_cpu_seconds: float,
) -> float:
    """The §4.5.2 formula, in bytes per CPU-second (clamped at zero)."""
    reclaimable = max(0.0, heap_resident_bytes - estimated_live_bytes)
    return reclaimable / max(estimated_cpu_seconds, MIN_CPU_SECONDS)


def rank_candidates(
    instances: Iterable[FunctionInstance],
    profiles: ProfileStore,
    now: float,
    freeze_timeout: float = 2.0,
) -> List[Tuple[float, FunctionInstance]]:
    """Rank frozen instances by estimated throughput, best first.

    Filters: not already reclaimed during this freeze (a second pass would
    release nothing), and frozen past the timeout.  They are pure and
    conjunctive, so their order cannot change the result; the cheapest
    and most selective goes first.
    """
    ranked: List[Tuple[float, FunctionInstance]] = []
    for instance in instances:
        if instance.reclaimed_this_freeze:
            continue
        if instance.state is not InstanceState.FROZEN:
            continue
        if instance.frozen_for(now) < freeze_timeout:
            continue
        live, cpu = profiles.estimate(instance.id, instance.spec.name)
        throughput = estimated_throughput(
            instance.heap_resident_bytes(), live, cpu
        )
        ranked.append((throughput, instance))
    ranked.sort(key=lambda pair: (-pair[0], pair[1].id))
    return ranked
