"""Host-time benchmark of the replay simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload azure-x15-desiccant --seed 1 \\
        --seconds 30 --trace 0

A run replays the workload on a series of inputs: input ``i`` is the
trace of ``TraceGenerator(seed=SEED * INPUT_STRIDE + i)``.  Every replay
runs in a fresh child process (``perfbench/child.py``) with the
``REPRO_*`` flags removed from its environment, so the simulator runs its
production configuration.  Replays continue while they fit in
``--seconds`` (at least ``MIN_REPLAYS``), the last one repeating input 0
as a check; the metrics are medians over them.  ``--trace 1`` then adds
the traced passes over input 0 and reports the per-layer metrics instead
of the end-to-end ones.

Every replay's model outputs are checked.  The last stdout line is the
JSON result; the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import model_problems  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS, arrival_counts  # noqa: E402

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("replay_s", "s"),
    ("sim_requests_per_s", "req/s"),
    ("peak_rss_mib", "MiB"),
    ("worker_peak_rss_mib", "MiB"),
]

INPUT_STRIDE = 1000
#: The trace seed whose input size is each workload's stated size.
STATED_SEED = 42
MIN_REPLAYS = 3
CHILD_TIMEOUT_S = 60.0
#: Seconds one ``perfbench.calibrate.reference_seconds()`` takes on the
#: reference host, a quiet 2-CPU Xeon VM under CPython 3.11.
REFERENCE_HOST_S = 0.24


def child_env(tmp: Path) -> Dict[str, str]:
    """The parent environment minus every ``REPRO_*`` flag and tracemalloc."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONTRACEMALLOC"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    # Cluster replays keep their segmented trace archive in a temporary
    # directory: keep it inside the checkout.
    env["TMPDIR"] = str(tmp)
    return env


def run_child(
    workload: str, seed: int, mode: str, env: Dict[str, str], shards: Optional[int] = None
) -> Tuple[Optional[dict], Optional[str]]:
    """Start one child and wait for it: ``(record, None)`` or ``(None, error)``."""
    t0 = time.monotonic()
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--t0", repr(t0),
    ]
    if shards is not None:
        cmd += ["--shards", str(shards)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"{mode} child timed out after {CHILD_TIMEOUT_S:g}s"
    finally:
        # Anything the child left behind in its session (shard workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"{mode} child exited {proc.returncode}: {tail[0]}"
    return json.loads(out.strip().splitlines()[-1]), None


class Run:
    """One benchmark invocation: its replays, checks, and request counts."""

    def __init__(self, workload: str, seed: int, env: Dict[str, str]) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Per trace seed: (warmup, measured) arrivals and the first model outputs.
        self.arrivals: Dict[int, Tuple[int, int]] = {}
        self.models: Dict[int, dict] = {}

    def replay(self, index: int, mode: str = "replay", shards: Optional[int] = None):
        """Replay input ``index`` in one child; check it and count its requests."""
        seed = self.seed * INPUT_STRIDE + index
        if seed not in self.arrivals:
            self.arrivals[seed] = arrival_counts(self.workload, seed)
        warm, measured = self.arrivals[seed]
        self.attempted += warm + measured
        record, error = run_child(self.workload.name, seed, mode, self.env, shards)
        if error:
            problems = [error]
        else:
            problems = model_problems(record["model"], measured, self.models.get(seed))
        if problems:
            self.problems.extend(f"trace seed {seed}: {p}" for p in problems)
            self.failed += warm + measured
            return None
        self.models.setdefault(seed, record["model"])
        record["trace_seed"] = seed
        record["requests"] = warm + record["model"]["completed"]
        return record

    def measure(self, seconds: float) -> List[dict]:
        """Replays of inputs 0, 1, ... while two more fit, then input 0 again.

        The last replay is the repeat check: input 0 must give the same
        model outputs twice.  It is timed like the others.
        """
        start = time.monotonic()
        walls: List[float] = []  # per child, start to exit
        replays: List[dict] = []
        while not self.problems and (
            len(replays) < MIN_REPLAYS - 1
            or time.monotonic() - start + 2 * statistics.median(walls) <= seconds
        ):
            began = time.monotonic()
            record = self.replay(len(replays))
            walls.append(time.monotonic() - began)
            if record is not None:
                replays.append(record)
        if not self.problems:
            record = self.replay(0)
            if record is not None:
                replays.append(record)
        return replays

    def traced(self, replays: List[dict]) -> Optional[Dict[str, float]]:
        """The traced passes over input 0 (``None`` if one failed).

        ``replays`` are the untraced ones; the mean of input 0's two is
        the base of ``tracing_overhead``.
        """
        if self.workload.cluster:
            # In-worker layers run in other processes: time the coordinator
            # on the sharded run, every other layer on one in-process shard.
            coordinator = self.replay(0, "coordinator")
            inprocess = self.replay(0, "layers", shards=1)
            if coordinator is None or inprocess is None:
                return None
            layers = {**inprocess["layers"], **coordinator["layers"]}
            timed = coordinator
        else:
            timed = self.replay(0, "layers")
            if timed is None:
                return None
            layers = dict(timed["layers"])
            layers.update({name: 0 for name, _ in PER_LAYER if name.startswith("shard.")})
        layers["setup.import_s"] = statistics.median(r["import_s"] for r in replays)
        untraced = [r["replay_s"] for r in replays if r["trace_seed"] == timed["trace_seed"]]
        layers["tracing_overhead"] = timed["replay_s"] / statistics.mean(untraced)
        return layers


def host_slowdown(replays: List[dict]) -> float:
    """How much slower than the reference host this host ran during the run.

    The mean of every reference measurement the run's children made,
    over :data:`REFERENCE_HOST_S`.
    """
    samples = [s for r in replays for s in r["reference_s"]]
    return statistics.mean(samples) / REFERENCE_HOST_S


def end_to_end(replays: List[dict], stated_requests: int) -> Dict[str, float]:
    """The end-to-end metrics of a run's untraced replays.

    Inputs differ in size from seed to seed, so the replay time is pooled
    over the run and scaled to the workload's stated size: ``replay_s``
    is the host time of ``stated_requests`` simulated requests at the
    run's pooled rate, and ``sim_requests_per_s`` is that rate.  The
    host's speed drifts by a third within minutes, so host times are
    divided by the run's :func:`host_slowdown`: they are the times on
    the reference host.
    """
    slowdown = host_slowdown(replays)
    seconds = sum(r["replay_s"] for r in replays) / slowdown
    requests = sum(r["requests"] for r in replays)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in replays) / slowdown,
        "replay_s": stated_requests * seconds / requests,
        "sim_requests_per_s": requests / seconds,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in replays),
        "worker_peak_rss_mib": statistics.median(r["worker_peak_rss_mib"] for r in replays),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        run = Run(args.workload, args.seed, child_env(tmp))
        replays = run.measure(args.seconds)
        metrics = end_to_end(replays, sum(arrival_counts(run.workload, STATED_SEED))) if replays else {}
        layers: Dict[str, float] = {}
        if args.trace and replays and not run.problems:
            layers = run.traced(replays) or {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    reported = [(END_TO_END, metrics), (PER_LAYER, layers)]
    for names, values in reported:
        for name, unit in names:
            if name in values:
                print(f"{name:32s} {values[name]:.6g} {unit}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    names, values = reported[1] if args.trace else reported[0]
    correct = not run.problems
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "replays": [
            {
                key: r[key]
                for key in ("trace_seed", "setup_s", "replay_s", "reference_s", "requests")
            }
            for r in replays
        ],
        "host_slowdown": host_slowdown(replays) if replays else None,
        "models": {str(seed): model for seed, model in run.models.items()},
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in names
            if name in values
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
