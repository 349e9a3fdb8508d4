"""Reclamation profiles (§4.5.2).

After each successful reclamation the language runtime reports its in-heap
live bytes and the platform adds the share-weighted CPU time; Desiccant
stores both per instance.  Estimates average an instance's own history; a
new instance borrows the average of same-function instances, and failing
that the global average over all profiled instances.  Profiles die with
their instance to bound memory overhead.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.mem.layout import MIB

#: Keep at most this many samples per instance.
MAX_SAMPLES = 16

#: Priors used before any profile exists anywhere (conservative guesses).
PRIOR_LIVE_BYTES = 8 * MIB
PRIOR_CPU_SECONDS = 0.01


@dataclass(frozen=True)
class ReclaimProfile:
    """One reclamation's memory + CPU profile."""

    live_bytes: int
    cpu_seconds: float

    def __post_init__(self) -> None:
        if self.live_bytes < 0 or self.cpu_seconds < 0:
            raise ValueError("profile values must be non-negative")


class ProfileStore:
    """Per-instance profile history with function-level fallback."""

    def __init__(self) -> None:
        self._by_instance: Dict[int, Deque[ReclaimProfile]] = {}
        self._instance_function: Dict[int, str] = {}
        self._by_function: Dict[str, list] = defaultdict(list)

    def record(self, instance_id: int, function: str, profile: ReclaimProfile) -> None:
        """Store one profile for an instance."""
        history = self._by_instance.setdefault(instance_id, deque(maxlen=MAX_SAMPLES))
        history.append(profile)
        self._instance_function[instance_id] = function
        self._by_function[function].append(profile)
        if len(self._by_function[function]) > 8 * MAX_SAMPLES:
            self._by_function[function] = self._by_function[function][-4 * MAX_SAMPLES:]

    def drop_instance(self, instance_id: int) -> None:
        """Forget a destroyed instance's history (bounds overhead, §4.5.2).

        Function-level aggregates survive so future same-function instances
        keep a warm prior."""
        self._by_instance.pop(instance_id, None)
        self._instance_function.pop(instance_id, None)

    def estimate(self, instance_id: int, function: str) -> Tuple[float, float]:
        """``(estimated_live_bytes, estimated_cpu_seconds)`` for an instance.

        Resolution order: own history -> same-function history -> global
        average -> fixed priors.
        """
        history = self._by_instance.get(instance_id)
        if history:
            return self._mean(history)
        same_function = self._by_function.get(function)
        if same_function:
            return self._mean(same_function)
        all_profiles = [p for ps in self._by_function.values() for p in ps]
        if all_profiles:
            return self._mean(all_profiles)
        return float(PRIOR_LIVE_BYTES), PRIOR_CPU_SECONDS

    def has_history(self, instance_id: int) -> bool:
        return bool(self._by_instance.get(instance_id))

    @staticmethod
    def _mean(profiles) -> Tuple[float, float]:
        n = len(profiles)
        live = sum(p.live_bytes for p in profiles) / n
        cpu = sum(p.cpu_seconds for p in profiles) / n
        return live, cpu
