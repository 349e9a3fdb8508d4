"""Command-line interface: run the paper's experiments from a shell.

Subcommands mirror the evaluation protocols::

    python -m repro list
    python -m repro characterize fft --policy desiccant --iterations 100
    python -m repro replay --scale-factor 15 --capacity-mib 1024
    python -m repro overhead sort --reclaimer swap
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.report import render_table
from repro.choices import POLICIES, SCHEDULERS
from repro.mem.layout import MIB, fmt_bytes
from repro.workloads import all_definitions, get_definition, table1_rows


def _cmd_list(_args: argparse.Namespace) -> int:
    print(render_table(["language", "function", "description"], table1_rows()))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis.characterize import run_single

    names = [args.function] if args.function != "all" else [
        d.name for d in all_definitions()
    ]
    rows = []
    for name in names:
        run = run_single(
            name,
            policy=args.policy,
            iterations=args.iterations,
            memory_budget=args.budget_mib * MIB,
        )
        rows.append(
            [
                run.definition.display_name(),
                run.policy,
                fmt_bytes(run.final_uss),
                fmt_bytes(run.final_ideal),
                f"{run.avg_ratio:.2f}x",
                f"{run.max_ratio:.2f}x",
            ]
        )
        run.destroy()
    print(
        render_table(
            ["function", "policy", "USS", "ideal", "avg_ratio", "max_ratio"],
            rows,
        )
    )
    return 0


def _trace_path_for(template: str, policy: str, multiple: bool) -> str:
    """Per-policy trace filename: ``out.jsonl`` -> ``out.desiccant.jsonl``."""
    if not multiple:
        return template
    path = Path(template)
    return str(path.with_name(f"{path.stem}.{policy}{path.suffix or '.jsonl'}"))


def _archive_dir_for(template: str, policy: str, multiple: bool) -> str:
    """Per-policy archive directory: ``out`` -> ``out.desiccant``."""
    if not multiple:
        return template
    return f"{template}.{policy}"


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core import Desiccant, EagerGcManager, VanillaManager
    from repro.faas.platform import PlatformConfig
    from repro.trace.generator import TraceGenerator
    from repro.trace.replay import (
        ClusterReplayConfig,
        ReplayConfig,
        cluster_replay,
        replay,
    )

    factories = {
        "vanilla": VanillaManager,
        "eager": EagerGcManager,
        "desiccant": Desiccant,
    }
    checkpointing = (
        args.checkpoint_dir or args.checkpoint_every or args.resume or args.fork
    )
    if checkpointing and not args.nodes:
        print("error: checkpoint options require --nodes", file=sys.stderr)
        return 2
    if checkpointing and args.policy == "all":
        print(
            "error: checkpoint options need a single --policy "
            "(a checkpoint belongs to one session)",
            file=sys.stderr,
        )
        return 2
    if args.set and not args.fork:
        print("error: --set requires --fork", file=sys.stderr)
        return 2
    resume_from = args.resume or args.fork
    fork = None
    if args.fork:
        fork = {}
        for pair in args.set or []:
            key, sep, value = pair.partition("=")
            if not sep:
                print(f"error: --set wants key=value, got {pair!r}", file=sys.stderr)
                return 2
            if key == "policy":
                if value not in factories:
                    print(
                        f"error: unknown policy {value!r}; pick from "
                        f"{sorted(factories)}",
                        file=sys.stderr,
                    )
                    return 2
                fork["manager_factory"] = factories[value]
            elif key == "scheduler":
                fork["scheduler"] = value
            elif key == "reseed":
                fork["reseed"] = value
            else:
                print(
                    f"error: --set key must be policy, scheduler, or reseed "
                    f"(got {key!r})",
                    file=sys.stderr,
                )
                return 2
    chosen = list(factories) if args.policy == "all" else [args.policy]
    generator = TraceGenerator(seed=args.seed)
    rows = []
    for policy in chosen:
        trace_path = None
        if args.event_trace:
            trace_path = _trace_path_for(args.event_trace, policy, len(chosen) > 1)
        archive_dir = None
        if args.archive:
            archive_dir = _archive_dir_for(args.archive, policy, len(chosen) > 1)
        if args.nodes:
            config = ClusterReplayConfig(
                nodes=args.nodes,
                scheduler=args.scheduler,
                shards=args.shards,
                epoch_seconds=args.epoch,
                window_epochs=args.window_epochs,
                scale_factor=args.scale_factor,
                warmup_seconds=args.warmup,
                duration_seconds=args.duration,
                platform=PlatformConfig(capacity_bytes=args.capacity_mib * MIB),
                trace=trace_path is not None,
                event_trace_path=trace_path,
                archive_dir=archive_dir,
                archive_bucket_seconds=args.bucket_seconds,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                resume_from=resume_from,
                fork=fork,
            )
            from repro.sim.checkpoint import CheckpointError

            try:
                result = cluster_replay(factories[policy], config, generator)
            except CheckpointError as exc:
                # A refused checkpoint names its invariant: ``[checkpoint-...]``.
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if result.checkpoints:
                print(
                    f"captured {len(result.checkpoints)} checkpoints in "
                    f"{args.checkpoint_dir} (last: "
                    f"{result.checkpoints[-1].name})",
                    file=sys.stderr,
                )
            if result.resumed_phase is not None:
                what = "forked" if fork else "resumed"
                print(
                    f"{what} from {resume_from} into the "
                    f"{result.resumed_phase} phase (measure_start "
                    f"{result.measure_start:.3f}s)",
                    file=sys.stderr,
                )
            if args.shards > 1:
                print(
                    f"shard coordination: {result.round_trips} "
                    f"round trips, {fmt_bytes(result.pipe_bytes)} over pipes "
                    f"({result.epochs} epochs), coordination overhead "
                    f"{result.coordination_overhead:.3f}s",
                    file=sys.stderr,
                )
            if trace_path is not None:
                print(
                    f"wrote {result.trace_events} events to {trace_path} "
                    f"(sha256 {result.trace_sha256[:16]}, merged from "
                    f"{args.nodes} nodes / {args.shards} shards, "
                    f"{result.epochs} epochs)",
                    file=sys.stderr,
                )
        else:
            config = ReplayConfig(
                scale_factor=args.scale_factor,
                warmup_seconds=args.warmup,
                duration_seconds=args.duration,
                platform=PlatformConfig(capacity_bytes=args.capacity_mib * MIB),
                event_trace_path=trace_path,
                archive_dir=archive_dir,
                archive_bucket_seconds=args.bucket_seconds,
            )
            result = replay(factories[policy], config, generator)
            if trace_path is not None:
                print(
                    f"wrote {result.trace_events} events to {trace_path} "
                    f"(sha256 {result.trace_sha256[:16]})",
                    file=sys.stderr,
                )
        stats = result.stats
        if archive_dir is not None:
            print(
                f"archived {result.trace_events} events to {archive_dir} "
                f"(composed sha256 {result.trace_sha256[:16]})",
                file=sys.stderr,
            )
        rows.append(
            [
                stats.policy,
                f"{stats.cold_boot_rate:.3f}",
                f"{stats.throughput_rps:.1f}",
                f"{stats.cpu_utilization:.0%}",
                f"{stats.p99_latency:.2f}s",
                stats.evictions,
            ]
        )
    print(
        render_table(
            ["policy", "cold/req", "rps", "cpu", "p99", "evictions"], rows
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.shard import sha256_lines
    from repro.trace.archive import ArchiveReader, pack

    if args.trace_command == "pack":
        events, sha = pack(
            args.jsonl, args.archive, bucket_seconds=args.bucket_seconds
        )
        print(f"packed {events} events into {args.archive} (sha256 {sha[:16]})")
        return 0

    if args.trace_command == "ls":
        reader = ArchiveReader(args.archive)
        rows = []
        for info in reader.segments():
            footer = reader.read_footer(info.name)
            rows.append(
                [
                    info.name,
                    footer["events"],
                    f"{footer['t_min']:.3f}" if footer["t_min"] is not None else "-",
                    f"{footer['t_max']:.3f}" if footer["t_max"] is not None else "-",
                    fmt_bytes(footer.get("payload_bytes", 0)),
                    str(footer["sha256"])[:12],
                ]
            )
        print(
            render_table(
                ["segment", "events", "t_min", "t_max", "payload", "sha256"],
                rows,
            )
        )
        if reader.manifest is not None:
            m = reader.manifest
            print(
                f"{m['segments']} segments, {m['events']} events, "
                f"bucket {m['bucket_seconds']}s, composed sha256 "
                f"{str(m['sha256'])[:16]}",
                file=sys.stderr,
            )
        return 0

    if args.trace_command == "cat":
        reader = ArchiveReader(args.archive)
        nodes = (
            tuple(int(n) for n in args.nodes.split(",") if n)
            if args.nodes
            else None
        )
        try:
            for line in reader.iter_window(
                t_start=args.t_start, t_end=args.t_end, nodes=nodes
            ):
                print(line)
        except BrokenPipeError:
            # Downstream (e.g. `head`) closed the pipe: normal shutdown.
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0

    if args.trace_command == "verify":
        reader = ArchiveReader(args.archive)
        against = None
        if args.against:
            with open(args.against, "r", encoding="utf-8") as handle:
                _, against = sha256_lines(
                    line.rstrip("\n") for line in handle if line.rstrip("\n")
                )
        events, sha, problems = reader.verify(against_sha256=against)
        for problem in problems:
            print(f"PROBLEM {problem}", file=sys.stderr)
        if problems:
            return 1
        suffix = f", matches {args.against}" if args.against else ""
        print(
            f"{args.archive}: {len(reader.segments())} segments, "
            f"{events} events verified (composed sha256 {sha[:16]}{suffix})"
        )
        return 0

    raise ValueError(f"unknown trace command {args.trace_command!r}")


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.bench import (
        REPLAY_POLICIES,
        BenchSpec,
        build_grid,
        build_replay_macro,
        compare_micro,
        compare_replay,
        load_baseline,
        run_benchmarks,
        summarize,
        verify_trace_identity,
        write_results,
    )

    specs = []
    if args.suite in ("micro", "all"):
        specs.append(BenchSpec(kind="micro", size_mib=args.size_mib))
    if args.suite in ("characterize", "all"):
        specs.extend(
            build_grid(
                functions=args.functions.split(","),
                policies=args.policies.split(","),
                scales=(),
                iterations=args.iterations,
                budget_mib=args.budget_mib,
            )
        )
    if args.suite in ("replay", "all"):
        shard_counts = (
            tuple(int(s) for s in args.shards.split(",") if s)
            if args.shards
            else ()
        )
        specs.extend(
            build_replay_macro(
                sizes=args.sizes.split(","),
                policies=[
                    p for p in args.policies.split(",") if p in REPLAY_POLICIES
                ],
                seed=args.seed,
                nodes=args.nodes if shard_counts or args.forked else 0,
                shard_counts=shard_counts,
                include_forked=args.forked,
            )
        )
    results = run_benchmarks(specs, jobs=args.jobs, profile_dir=args.profile)
    rows = []
    for result in results:
        metrics = result["metrics"]
        key_metric = next(iter(metrics.items())) if metrics else ("-", "-")
        rows.append(
            [
                result["label"],
                f"{result['wall_seconds']:.2f}s",
                f"{result['cpu_seconds']:.2f}s",
                f"{key_metric[0]}={key_metric[1]}",
            ]
        )
    print(render_table(["run", "wall", "cpu", "headline"], rows))
    document = summarize(results)
    if args.json:
        write_results(Path(args.json), document)
        print(f"wrote {args.json}", file=sys.stderr)
    mismatches = verify_trace_identity(results)
    for mismatch in mismatches:
        print(f"TRACE MISMATCH {mismatch}", file=sys.stderr)
    if mismatches:
        return 1
    if args.check:
        baseline = load_baseline(Path(args.check))
        if baseline is None:
            print(f"error: baseline {args.check} not found", file=sys.stderr)
            return 2
        baseline_runs = baseline.get("runs", ())
        failures = []
        gated = []
        current_micro = next(
            (r["metrics"] for r in results if r["spec"]["kind"] == "micro"), None
        )
        baseline_micro = next(
            (
                r["metrics"]
                for r in baseline_runs
                if r.get("spec", {}).get("kind") == "micro"
            ),
            None,
        )
        if current_micro is not None and baseline_micro is not None:
            failures.extend(compare_micro(current_micro, baseline_micro, args.factor))
            gated.append("micro")
        if any(r["spec"]["kind"] == "replay" for r in results):
            failures.extend(compare_replay(results, baseline_runs, args.factor))
            gated.append("replay")
        if not gated:
            print(
                "error: --check found nothing to gate: the baseline and the "
                "current run share no micro or replay suite",
                file=sys.stderr,
            )
            return 2
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"{' and '.join(gated)} within baseline", file=sys.stderr)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.check.fuzz import parse_seed_spec, replay_case, run_fuzz

    if args.replay:
        failure, header = replay_case(Path(args.replay))
        expected = header.get("kind", "?")
        if failure is None:
            print(f"{args.replay}: no violation (expected {expected})")
            return 0
        print(f"{args.replay}: reproduced {failure.kind} at op {failure.op_index}")
        print(f"  {failure.detail}")
        return 1

    seeds = parse_seed_spec(args.seed)
    results = run_fuzz(
        seeds,
        args.ops,
        check_every=args.check_every,
        jobs=args.jobs,
        case_dir=args.case_dir,
        checkpoint_every=args.checkpoint_every,
    )
    failures = [r for r in results if not r["ok"]]
    checks = sum(r["checks"] for r in results)
    print(
        f"fuzz: {len(results)} seeds x {args.ops} ops, "
        f"{checks} oracle sweeps, {len(failures)} failing"
    )
    for result in failures:
        line = (
            f"  seed {result['seed']}: {result['kind']} at op "
            f"{result['op_index']} (shrunk to {result['shrunk_len']} ops)"
        )
        if result.get("snapshot_index") is not None:
            line += f" [suffix shrink from snapshot @{result['snapshot_index']}]"
        if result.get("case_path"):
            line += f" -> {result['case_path']}"
        print(line)
        print(f"    {result['detail']}")
    return 1 if failures else 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.analysis.characterize import run_overhead_experiment

    before, after = run_overhead_experiment(
        args.function,
        reclaimer=args.reclaimer,
        warm_iterations=args.warm,
        probe_iterations=args.probe,
    )
    print(f"{args.function} ({args.reclaimer}): "
          f"{before * 1000:.2f} ms -> {after * 1000:.2f} ms "
          f"({after / before - 1:+.1%})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Frozen-garbage characterization and Desiccant reclamation "
        "(EuroSys '24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the Table 1 function suite").set_defaults(
        func=_cmd_list
    )

    p = sub.add_parser(
        "characterize", help="run the §3.1/§5.2 single-instance protocol"
    )
    p.add_argument("function", help="Table 1 function name, or 'all'")
    p.add_argument("--policy", choices=POLICIES, default="vanilla")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--budget-mib", type=int, default=256)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("replay", help="replay the Azure-style trace (§5.3)")
    p.add_argument(
        "--policy",
        choices=(*POLICIES, "all"),
        default="all",
    )
    p.add_argument("--scale-factor", type=float, default=15.0)
    p.add_argument("--capacity-mib", type=int, default=1024)
    p.add_argument("--warmup", type=float, default=30.0)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--event-trace",
        metavar="PATH",
        help="stream a JSONL event trace of the measurement window here "
        "(with --policy all, one file per policy: PATH.<policy>.jsonl)",
    )
    p.add_argument(
        "--archive",
        metavar="DIR",
        help="roll the measurement trace into a segmented archive at DIR "
        "(with --policy all, one directory per policy: DIR.<policy>); "
        "independent of --event-trace, and digest-checked against it "
        "when both are on",
    )
    p.add_argument(
        "--bucket-seconds",
        type=float,
        default=60.0,
        help="simulated seconds per archive time bucket",
    )
    p.add_argument(
        "--nodes",
        type=int,
        default=0,
        help="replay on a cluster of this many invoker nodes instead of a "
        "single platform (0 = single platform)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the cluster nodes across this many worker "
        "processes, synchronized in conservative time epochs (1 = the "
        "in-process serial twin; merged traces are byte-identical either "
        "way)",
    )
    p.add_argument(
        "--scheduler",
        choices=SCHEDULERS,
        default="warm-affinity",
        help="cluster front-end scheduler (--nodes only)",
    )
    p.add_argument(
        "--epoch",
        type=float,
        default=5.0,
        help="simulated seconds per cell of the fixed synchronization "
        "epoch grid (--nodes only)",
    )
    p.add_argument(
        "--window-epochs",
        type=int,
        default=32,
        help="max epochs granted per coordinator message",
    )
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="capture checkpoints at epoch barriers into DIR "
        "(docs/CHECKPOINTS.md; --nodes with a single --policy only)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="align barriers (and captures) to every N epochs",
    )
    p.add_argument(
        "--resume",
        metavar="CKPT",
        help="restore this checkpoint and run only the remaining suffix "
        "(byte-identical to the uninterrupted run)",
    )
    p.add_argument(
        "--fork",
        metavar="CKPT",
        help="fork a what-if leg from this checkpoint; combine with --set "
        "to change parameters at the barrier",
    )
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="fork divergence (repeatable): policy=<name>, "
        "scheduler=<name>, or reseed=<label>",
    )
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "trace",
        help="inspect and verify segmented trace archives "
        "(docs/TRACE_ARCHIVE.md)",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    tp = trace_sub.add_parser(
        "pack", help="pack a flat JSONL trace into a segmented archive"
    )
    tp.add_argument("jsonl", help="flat JSONL event trace (docs/EVENT_TRACE.md)")
    tp.add_argument("archive", help="output archive directory (must be fresh)")
    tp.add_argument(
        "--bucket-seconds",
        type=float,
        default=60.0,
        help="simulated seconds per time bucket",
    )
    tp.set_defaults(func=_cmd_trace)

    tp = trace_sub.add_parser("ls", help="list an archive's segments")
    tp.add_argument("archive")
    tp.set_defaults(func=_cmd_trace)

    tp = trace_sub.add_parser(
        "cat", help="stream records (optionally a time/node window) to stdout"
    )
    tp.add_argument("archive")
    tp.add_argument("--t-start", type=float, help="window start (inclusive)")
    tp.add_argument("--t-end", type=float, help="window end (exclusive)")
    tp.add_argument("--nodes", help="comma-separated node ids (default: all)")
    tp.set_defaults(func=_cmd_trace)

    tp = trace_sub.add_parser(
        "verify",
        help="check every segment footer and the composed digest; "
        "nonzero exit on any problem",
    )
    tp.add_argument("archive")
    tp.add_argument(
        "--against",
        metavar="JSONL",
        help="also require the composed digest to equal this flat trace's",
    )
    tp.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "bench",
        help="fan benchmark runs across processes; metrics are "
        "deterministic, only wall/CPU timings vary",
    )
    p.add_argument(
        "--suite",
        choices=("micro", "characterize", "replay", "all"),
        default="all",
    )
    p.add_argument("--functions", default="fft,sort,mapreduce")
    p.add_argument("--policies", default="vanilla,eager,desiccant")
    p.add_argument(
        "--sizes",
        default="small",
        help="replay macro sizes, comma-separated (small, medium, large)",
    )
    p.add_argument(
        "--shards",
        default="",
        help="also run cluster replay legs at these shard counts "
        "(comma-separated, e.g. '2,4'); each is digest-gated against an "
        "in-process serial twin of the same cluster",
    )
    p.add_argument(
        "--nodes",
        type=int,
        default=8,
        help="cluster size for the sharded replay legs (with --shards)",
    )
    p.add_argument(
        "--forked",
        action="store_true",
        help="add a checkpoint-fork sweep leg per cluster replay cell: "
        "capture a measure-start checkpoint, resume a forked twin that "
        "skips the warmup prefix, and gate its merged-trace digest "
        "against the from-scratch run's",
    )
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--budget-mib", type=int, default=256)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--size-mib", type=int, default=200, help="microbench range size")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--profile",
        metavar="DIR",
        help="run each spec under cProfile; dump <label>.prof and a "
        "cumulative top-30 listing into DIR",
    )
    p.add_argument("--json", metavar="PATH", help="write the full results JSON here")
    p.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare the micro and replay runs against this committed "
        "baseline JSON",
    )
    p.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="allowed slowdown vs the baseline before failing (default 2x)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "fuzz",
        help="deterministic simulation fuzzing under the invariant oracle "
        "(repro.check)",
    )
    p.add_argument(
        "--seed",
        default="0",
        help="seed spec: '7', '0..63' (inclusive range), or '1,5,9'",
    )
    p.add_argument("--ops", type=int, default=2000, help="ops per seed")
    p.add_argument(
        "--check-every",
        type=int,
        default=1,
        help="run a full oracle sweep every N ops (a final sweep always runs)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="snapshot the fuzz world every N ops so shrinking restarts "
        "from the last snapshot before the failure instead of replaying "
        "the whole prefix (the written case stays standalone-replayable)",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--case-dir",
        metavar="DIR",
        help="write shrunk .jsonl repro cases for failing seeds here",
    )
    p.add_argument(
        "--replay",
        metavar="CASE",
        help="re-execute one .jsonl case file instead of fuzzing",
    )
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("overhead", help="post-reclaim overhead (§5.6)")
    p.add_argument("function")
    p.add_argument(
        "--reclaimer",
        choices=("desiccant", "aggressive", "swap"),
        default="desiccant",
    )
    p.add_argument("--warm", type=int, default=130)
    p.add_argument("--probe", type=int, default=10)
    p.set_defaults(func=_cmd_overhead)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
