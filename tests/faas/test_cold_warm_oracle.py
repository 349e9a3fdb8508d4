"""The platform's cold/warm verdicts against an exact, memory-free oracle.

With memory unlimited and a fixed keep-alive window, whether a request
starts cold depends on four things only: the arrival times, each
request's finish time, the keep-alive rule and the reuse rule (the idle
instance used most recently, ``FaasPlatform._acquire``).
:func:`tests.oracles.reference_cold_starts` applies those rules and
nothing else, so it must agree with the platform on every request.
"""

from __future__ import annotations

import random

import pytest

from repro.core import VanillaManager
from repro.faas.keepalive import HybridHistogramKeepAlive
from repro.faas.platform import FaasPlatform, PlatformConfig, Request
from repro.mem.layout import GIB
from repro.workloads.registry import get_definition
from tests.oracles import reference_cold_starts


def _poisson_arrivals(rate, count, seed):
    rng = random.Random(seed)
    t, times = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate)
        times.append(t)
    return times


@pytest.mark.parametrize("function", ["clock", "fft", "file-hash", "sort"])
@pytest.mark.parametrize(
    "rate, keep_alive", [(0.05, 20.0), (0.2, 10.0), (0.5, 4.0), (2.0, 1.0)]
)
def test_platform_verdicts_match_the_reference(function, rate, keep_alive):
    """Poisson arrivals of one function under a fixed keep-alive
    (``min_window == max_window``) on a 64 GiB cache: the finish times
    come from the platform's outcomes, the verdicts must be the
    reference's."""
    platform = FaasPlatform(
        PlatformConfig(
            capacity_bytes=64 * GIB,
            eviction_policy=HybridHistogramKeepAlive(
                min_window=keep_alive, max_window=keep_alive
            ),
        ),
        VanillaManager(),
    )
    definition = get_definition(function)
    arrivals = _poisson_arrivals(rate, 100, seed=1)
    requests = [Request(arrival=t, definition=definition) for t in arrivals]
    platform.submit(requests)
    outcomes = {outcome.request.id: outcome for outcome in platform.run()}
    finishes = [outcomes[request.id].finished for request in requests]
    cold = [outcomes[request.id].cold_boots > 0 for request in requests]
    assert platform.overcommits == 0
    assert cold == reference_cold_starts(arrivals, finishes, keep_alive)
    assert any(cold) and not all(cold)


def test_reuse_takes_the_instance_that_finished_last():
    """Request A runs over [0, 5] and B over [1, 2]: A started first but
    finished last.  C at 6 reuses A's instance, so D at 7 finds only B's,
    whose keep-alive ran out at 6.5, and boots cold.  Keying reuse on
    start time would hand C B's instance and D A's, warm."""
    assert reference_cold_starts(
        [0.0, 1.0, 6.0, 7.0], [5.0, 2.0, 8.0, 9.0], keep_alive=4.5
    ) == [True, True, False, True]
