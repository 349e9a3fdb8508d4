"""A fixed pure-Python workload that gauges how fast the host runs right now.

It uses none of the simulator's code, so a change to the simulator cannot
move it: only the host can.  It mixes what the simulator spends its time
on: small-object allocation, dict and heap operations, attribute access,
method calls and float arithmetic.
"""

from __future__ import annotations

import heapq
import time


class _Event:
    __slots__ = ("at", "key", "size")

    def __init__(self, at: float, key: int, size: int) -> None:
        self.at = at
        self.key = key
        self.size = size

    def cost(self, scale: float) -> float:
        return self.size * scale + self.at


def _work(rounds: int) -> float:
    total = 0.0
    for r in range(rounds):
        heap: list = []
        table: dict = {}
        state = r * 2654435761 % 4294967296
        for i in range(2000):
            state = (state * 1103515245 + 12345) % 2147483648
            event = _Event(i * 0.001, state % 512, state % 4096)
            heapq.heappush(heap, (event.at + (state % 97) * 0.01, i, event))
            table[event.key] = table.get(event.key, 0) + event.size
        while heap:
            _, _, event = heapq.heappop(heap)
            total += event.cost(1.5) - table.get(event.key, 0) * 1e-6
    return total


def reference_seconds(rounds: int = 60) -> float:
    """Wall seconds of one fixed batch of reference work."""
    start = time.perf_counter()
    _work(rounds)
    return time.perf_counter() - start
