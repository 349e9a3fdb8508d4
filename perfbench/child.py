"""One replay in a fresh interpreter; prints one JSON record on stdout.

Started by ``perfbench/run.py`` from the checkout root as::

    python3 -m perfbench.child --workload NAME --seed N --t0 T --mode MODE

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, and building
the inputs, up to the call into the replay entry point.  Modes:

* ``replay``: the untraced replay, with the host-speed reference
  (``perfbench/calibrate.py``) timed just before and just after it;
* ``layers``: the replay with every in-process layer wrapped in spans
  (``--shards 1`` gives the in-process pass of a cluster workload);
* ``coordinator``: the replay with only the shard coordinator's pipe
  calls wrapped.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("replay", "layers", "coordinator"), required=True
    )
    parser.add_argument("--shards", type=int, default=None)
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    import repro.core  # noqa: F401
    import repro.faas.platform  # noqa: F401
    import repro.trace.replay  # noqa: F401

    import_s = time.perf_counter() - import_start

    from perfbench.calibrate import reference_seconds
    from perfbench.workloads import WORKLOADS, model_outputs, prepare

    workload = WORKLOADS[args.workload]
    record: dict = {"import_s": import_s}
    if args.mode == "replay":
        call = prepare(workload, args.seed, args.shards)
        record["setup_s"] = time.monotonic() - args.t0
        # Gauge the host's speed on either side of the replay.
        record["reference_s"] = [reference_seconds()]
        start = time.perf_counter()
        result = call()
        record["replay_s"] = time.perf_counter() - start
        record["reference_s"].append(reference_seconds())
    else:
        from perfbench import layers
        from perfbench.spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            if args.mode == "layers":
                collected = layers.install_layers(tracer)
            else:
                layers.install_coordinator(tracer)
            call = prepare(workload, args.seed, args.shards)
            start = time.perf_counter()
            result = call()
            record["replay_s"] = time.perf_counter() - start
        if args.mode == "layers":
            record["layers"] = layers.layer_metrics(tracer, collected)
            record["layers"]["unattributed_s"] = (
                record["replay_s"] - tracer.covered_seconds()
            )
        else:
            record["layers"] = layers.coordinator_metrics(tracer, result)
    record["peak_rss_mib"] = _peak_rss_mib(resource.RUSAGE_SELF)
    # Shard workers are joined by now; a single platform runs in-process.
    record["worker_peak_rss_mib"] = (
        _peak_rss_mib(resource.RUSAGE_CHILDREN)
        if workload.cluster and (args.shards or workload.shards) > 1
        else record["peak_rss_mib"]
    )
    record["model"] = model_outputs(result)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
