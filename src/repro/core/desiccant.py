"""Desiccant, the freeze-aware memory manager (§4).

Wired into the platform as a background sweeper (Figure 5): freezes and
evictions arrive as bus events via the platform's manager bridge, which
also drives :meth:`Desiccant.step` after every simulation event.  On each
step Desiccant checks the activation threshold against the frozen
instances' accumulated memory, and while over it, reclaims the
highest-estimated-throughput candidates using idle CPU; the bridge
publishes ``reclaim-start``/``reclaim-done`` events for any sweep that
did work.  Eviction stays the platform's business -- stateless instances
make racing reclamation and eviction harmless (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.activation import ActivationController
from repro.core.profiles import ProfileStore
from repro.core.reclaimer import ReclaimReport, reclaim_instance
from repro.core.selection import rank_candidates
from repro.faas.instance import FunctionInstance


@dataclass
class DesiccantConfig:
    """Tunables for the manager."""

    #: Minimum freeze age before an instance is a candidate (§4.3).  Short
    #: enough that instances refreezing every couple of seconds under high
    #: scale factors still get reclaimed between requests.
    freeze_timeout_seconds: float = 0.5
    #: Use the aggressive GC interface (§4.7 recommends not to).
    aggressive: bool = False
    #: Run the §4.6 shared-library unmap.
    unmap_libraries: bool = True
    #: Most instances reclaimed per activation step (bounds CPU bursts).
    max_reclaims_per_step: int = 8


class Desiccant:
    """Activation + selection + reclamation over a platform's instances."""

    def __init__(
        self,
        config: DesiccantConfig | None = None,
        activation: ActivationController | None = None,
        profiles: ProfileStore | None = None,
    ) -> None:
        self.name = "desiccant"
        self.config = config or DesiccantConfig()
        self.activation = activation or ActivationController()
        self.profiles = profiles or ProfileStore()
        self.reports: List[ReclaimReport] = []
        self.total_released_bytes = 0
        self.total_cpu_seconds = 0.0
        #: ``(fingerprint, ranked, next_eligible_at)``: the ranking is a
        #: pure function of the frozen set, the instances' memory state,
        #: and the profile store -- all carried in the fingerprint -- plus
        #: the clock, whose only effect is the freeze-timeout filter.  The
        #: cache therefore also expires at the instant the next too-young
        #: instance would become eligible.
        self._ranked_cache: Optional[Tuple[tuple, list, float]] = None

    # ---------------------------------------------------- platform hooks

    def on_invocation_end(self, instance: FunctionInstance, now: float) -> float:
        return 0.0

    def on_freeze(self, instance: FunctionInstance, now: float) -> float:
        return 0.0

    def on_eviction(self, instance: FunctionInstance, now: float) -> None:
        """Eviction = real pressure: drop the threshold, forget profiles."""
        self.activation.on_eviction(now)
        self.profiles.drop_instance(instance.id)

    def step(self, now: float, platform) -> float:
        """One background sweep; returns CPU seconds consumed."""
        self.activation.advance(now)
        capacity = self._frozen_capacity(platform)
        if not self.activation.should_activate(platform.frozen_bytes(), capacity):
            return 0.0
        target = self.activation.target_bytes(capacity)
        share = max(0.05, min(1.0, platform.idle_cpu_share()))
        cpu = 0.0
        for _ in range(self.config.max_reclaims_per_step):
            if platform.frozen_bytes() <= target:
                break
            ranked = self._ranked(platform, now)
            if not ranked:
                break
            _throughput, instance = ranked[0]
            cpu += self.reclaim(instance, cpu_share=share)
        return cpu

    def _ranked(self, platform, now: float) -> list:
        """Throughput-ranked candidates, cached between sweeps.

        Each reclaim records a profile (bumping the store's version) and
        dirties the instance's memory, so mid-burst the ranking rebuilds
        per reclaim exactly like the direct computation; between bursts
        the fingerprint holds and the activation check costs O(1)."""
        frozen = platform.frozen_instances()
        timeout = self.config.freeze_timeout_seconds
        if not hasattr(frozen, "version"):
            return rank_candidates(frozen, self.profiles, now, freeze_timeout=timeout)
        fingerprint = (frozen.version, frozen.state_version, self.profiles.version)
        cached = self._ranked_cache
        if cached is not None and cached[0] == fingerprint and now < cached[2]:
            return cached[1]
        ranked = rank_candidates(frozen, self.profiles, now, freeze_timeout=timeout)
        next_eligible_at = float("inf")
        for instance in frozen:
            if instance.frozen_since is None:
                continue
            eligible_at = instance.frozen_since + timeout
            if eligible_at > now and eligible_at < next_eligible_at:
                next_eligible_at = eligible_at
        self._ranked_cache = (fingerprint, ranked, next_eligible_at)
        return ranked

    @staticmethod
    def _frozen_capacity(platform) -> int:
        """Capacity the activation fraction is measured against: memory
        actually available to frozen instances when the platform exposes
        it, the raw cache size otherwise."""
        getter = getattr(platform, "frozen_capacity_bytes", None)
        if getter is not None:
            return getter()
        return platform.capacity_bytes

    # ------------------------------------------------------- direct use

    def reclaim(self, instance: FunctionInstance, cpu_share: float = 1.0) -> float:
        """Reclaim one instance now; returns CPU seconds."""
        report = reclaim_instance(
            instance,
            self.profiles,
            cpu_share=cpu_share,
            aggressive=self.config.aggressive,
            unmap_libraries=self.config.unmap_libraries,
        )
        self.reports.append(report)
        self.total_released_bytes += report.released_bytes
        self.total_cpu_seconds += report.cpu_seconds
        return report.cpu_seconds
