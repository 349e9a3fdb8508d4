#!/usr/bin/env python3
"""Watch Desiccant work: a memory-pressure timeline plus the §2.1 probe.

Part 1 replays a bursty trace with Desiccant attached and records
telemetry: frozen memory climbing under load, the activation threshold
adapting, reclaims deflating the cache before evictions become necessary.
Rendered as ASCII sparklines; full series land in a CSV.

Part 2 runs the paper's §2.1 heartbeat experiment against three platform
configurations and classifies each from the outside, exactly like the
paper did with AWS Lambda / IBM / Alibaba.

Run:  python examples/pressure_timeline.py
"""

from repro.core import Desiccant
from repro.faas.platform import FaasPlatform, PlatformConfig, Request
from repro.faas.probe import probe_idle_semantics
from repro.faas.telemetry import TelemetryRecorder, sparkline
from repro.mem.layout import MIB
from repro.trace.generator import TraceGenerator


def timeline() -> None:
    print("=== Part 1: memory-pressure timeline (Desiccant attached) ===\n")
    desiccant = Desiccant()
    platform = FaasPlatform(
        config=PlatformConfig(capacity_bytes=768 * MIB), manager=desiccant
    )
    recorder = TelemetryRecorder(platform, interval=1.0)
    arrivals = TraceGenerator(seed=42).arrivals(90.0, scale_factor=12.0)
    platform.submit([Request(arrival=t, definition=d) for t, d in arrivals])
    platform.run()

    frozen = [b / MIB for b in recorder.series("frozen_bytes")]
    threshold = recorder.series("activation_threshold")
    print(f"frozen memory (MiB, peak {max(frozen):.0f}):")
    print("  " + sparkline(frozen))
    print("activation threshold (0.6 floor, relaxing when quiet):")
    print("  " + sparkline(threshold))
    print(f"\nreclaims: {desiccant.reclaims}, "
          f"released {desiccant.total_released_bytes / MIB:.0f} MiB total, "
          f"evictions: {platform.evictions}, "
          f"cold boots: {platform.cold_boots}")
    path = recorder.to_csv("benchmarks/results/pressure_timeline.csv")
    print(f"full series: {path}")
    for instance in platform.all_instances():
        instance.destroy()


def probes() -> None:
    print("\n=== Part 2: the §2.1 heartbeat probe ===\n")
    print("Splitting the function into foreground + heartbeat sender and")
    print("watching the heartbeats across a 30 s gap between requests:\n")
    for policy in ("freeze", "destroy", "keep-warm"):
        report = probe_idle_semantics(PlatformConfig(idle_policy=policy))
        windows = ", ".join(
            f"[{w.start:.2f}s..{'now' if w.end is None else f'{w.end:.2f}s'}]"
            for w in report.windows
        )
        print(f"  platform '{policy}': heartbeats {windows}")
        print(f"    -> classified as {report.classification!r}")
    print("\nThe paper observed the 'freeze' signature on AWS Lambda, IBM")
    print("Cloud Functions, and Alibaba Function Compute (§2.1).")


def main() -> None:
    timeline()
    probes()


if __name__ == "__main__":
    main()
