#!/usr/bin/env python
"""Parallel benchmark fan-out: the script face of ``repro bench``.

Fans the characterize grid, the VMM microbenchmark, and the macro replay
suite (one traced leg per size and policy, plus cluster legs --
docs/BENCHMARKS.md) across a process pool and writes the aggregated
wall/CPU timings + metrics to a JSON document (the committed
``BENCH_vmm.json`` and ``BENCH_replay.json`` baselines are these)::

    python benchmarks/runner.py --jobs 4 --json BENCH_vmm.json
    python benchmarks/runner.py --suite replay --sizes small,medium,large \\
        --policies vanilla,desiccant --nodes 8 --shards 2,4 \\
        --jobs 1 --json BENCH_replay.json

Metrics are deterministic -- every run seeds its own RNG streams and builds
its own physical memory, so a parallel run reports exactly the same numbers
as a serial one; only the timings vary with the machine.
"""

from __future__ import annotations

import sys

from repro.cli import main as repro_main


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    return repro_main(["bench", *argv])


if __name__ == "__main__":
    sys.exit(main())
