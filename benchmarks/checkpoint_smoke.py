#!/usr/bin/env python
"""Checkpoint smoke: capture / restore / fork round-trip on a small replay.

The CI face of docs/CHECKPOINTS.md: for each shard count, run a small
traced cluster replay from scratch while capturing checkpoints and
streaming per-node telemetry CSVs, then

1. resume from ``measure-start.ckpt`` -- the merged trace SHA-256 must
   equal the uninterrupted run's;
2. resume from the last mid-measurement barrier -- same identity;
3. fork from ``measure-start.ckpt`` with no changes -- same identity;
4. fork with a changed policy -- must *not* raise (divergence is legal).

Legs 1-3 rewrite the scratch run's telemetry CSVs and trace archive
(``ckpt/archive``) from their barrier on -- including each segment that
was open at the barrier, rebuilt from the payload its checkpoint
recovered -- and each must leave every CSV, archive segment and the
archive manifest byte-identical to what the scratch run wrote.  Exits
nonzero after any digest, telemetry or archive mismatch, leaving the
artifacts (checkpoints, CSVs, the archive and both flat traces) in
``--work-dir`` for upload::

    python benchmarks/checkpoint_smoke.py --shards 1,2 --work-dir ckpt-smoke
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.core import Desiccant, VanillaManager
from repro.trace.replay import ClusterReplayConfig, cluster_replay


def _config(shards: int, work: Path, **overrides) -> ClusterReplayConfig:
    return ClusterReplayConfig(
        nodes=4,
        shards=shards,
        epoch_seconds=2.0,
        scale_factor=3.0,
        warmup_scale_factor=3.0,
        warmup_seconds=6.0,
        duration_seconds=10.0,
        trace=True,
        trace_seed=42,
        checkpoint_dir=work / "ckpt",
        checkpoint_every=2,
        telemetry_dir=work / "telemetry",
        **overrides,
    )


def _telemetry(work: Path) -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted((work / "telemetry").glob("node*.csv"))
    }


def _archive(work: Path) -> dict:
    """Every segment and the manifest of the run's trace archive (pinned
    next to the checkpoints, so every leg rewrites the same root)."""
    return {
        path.name: path.read_bytes()
        for path in sorted((work / "ckpt" / "archive").iterdir())
    }


def run_smoke(shards: int, work: Path) -> int:
    failures = 0
    base_cfg = _config(shards, work, event_trace_path=work / "base.jsonl")
    base = cluster_replay(Desiccant, base_cfg)
    telemetry = _telemetry(work)
    archive = _archive(work)
    print(f"[shards={shards}] scratch: {base.trace_events} events "
          f"sha {base.trace_sha256[:12]}, {len(base.checkpoints)} checkpoints, "
          f"{len(telemetry)} telemetry CSVs, {len(archive)} archive files")
    if not telemetry:
        print(f"[shards={shards}] scratch run streamed no telemetry CSV")
        failures += 1

    def leg(name: str, **overrides) -> None:
        nonlocal failures
        result = cluster_replay(
            overrides.pop("factory", Desiccant),
            replace(_config(shards, work), **overrides),
        )
        match = result.trace_sha256 == base.trace_sha256
        same_csvs = _telemetry(work) == telemetry
        rewritten = _archive(work)
        differing = sorted(
            name
            for name in set(archive) | set(rewritten)
            if archive.get(name) != rewritten.get(name)
        )
        verdict = "ok" if match else "DIGEST MISMATCH"
        if not same_csvs:
            verdict += ", TELEMETRY MISMATCH"
        if differing:
            verdict += f", ARCHIVE MISMATCH in {', '.join(differing)}"
        print(f"[shards={shards}] {name}: sha {result.trace_sha256[:12]} "
              f"({verdict})")
        failures += (not match) + (not same_csvs) + bool(differing)

    measure_start = work / "ckpt" / "measure-start.ckpt"
    leg("resume @ measure-start", resume_from=measure_start)
    measured = sorted((work / "ckpt").glob("measured-*.ckpt"))
    if measured:
        leg(f"resume @ {measured[-1].name}", resume_from=measured[-1])
    leg("fork (unchanged)", resume_from=measure_start, fork={})
    # A changed-policy fork is allowed to diverge; it must simply run.
    # (The session is built with the capturing factory -- the fork
    # swaps managers after the restore, per docs/CHECKPOINTS.md.)
    forked = cluster_replay(
        Desiccant,
        replace(
            _config(shards, work),
            resume_from=measure_start,
            fork={"manager_factory": VanillaManager},
            event_trace_path=work / "fork.jsonl",
        ),
    )
    print(f"[shards={shards}] fork (policy=vanilla): "
          f"sha {forked.trace_sha256[:12]} ({forked.trace_events} events)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", default="1,2",
                        help="comma-separated shard counts (default 1,2)")
    parser.add_argument("--work-dir", default="ckpt-smoke",
                        help="artifact directory (kept on failure)")
    args = parser.parse_args(argv)
    failures = 0
    for shards in (int(part) for part in args.shards.split(",") if part):
        work = Path(args.work_dir) / f"shards{shards}"
        work.mkdir(parents=True, exist_ok=True)
        failures += run_smoke(shards, work)
    if failures:
        print(f"checkpoint smoke: {failures} digest, telemetry or archive "
              "mismatch(es)", file=sys.stderr)
        return 1
    print("checkpoint smoke: all legs byte-identical, telemetry and archive "
          "included")
    return 0


if __name__ == "__main__":
    sys.exit(main())
