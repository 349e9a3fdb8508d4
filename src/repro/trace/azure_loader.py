"""Loader for the Azure Functions 2019 dataset (the paper's §5.3 trace).

The public dataset (github.com/Azure/AzurePublicDataset) ships CSVs with a
row per function:

* ``invocations_per_function_md.anon.dXX.csv`` -- HashOwner, HashApp,
  HashFunction, Trigger, then 1440 per-minute invocation counts;
* ``function_durations_percentiles.anon.dXX.csv`` -- HashOwner, HashApp,
  HashFunction, Average, Count, Minimum, Maximum, percentile columns.

The dataset itself is not redistributable here, so the repository ships
only this loader; given the files, it reproduces the paper's §5.3 method:
pick the trace function whose average duration is closest to each Table 1
function (chains match against their end-to-end time) and replay the
Table 1 function with that trace function's arrival pattern.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.model import FunctionDefinition
from repro.workloads.registry import all_definitions

MINUTES_PER_DAY = 1440


@dataclass(frozen=True)
class AzureFunctionRow:
    """One function's day of per-minute invocation counts."""

    owner: str
    app: str
    function: str
    trigger: str
    per_minute: Tuple[int, ...]

    @property
    def key(self) -> str:
        """The dataset's composite function identity."""
        return f"{self.owner}/{self.app}/{self.function}"

    @property
    def total_invocations(self) -> int:
        """Invocations over the whole day."""
        return sum(self.per_minute)


def load_invocation_counts(path: str | Path) -> List[AzureFunctionRow]:
    """Parse an ``invocations_per_function`` CSV."""
    rows: List[AzureFunctionRow] = []
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"HashOwner", "HashApp", "HashFunction", "Trigger"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(
                f"{path}: expected Azure invocation-count columns, "
                f"got {reader.fieldnames}"
            )
        minute_columns = [
            name for name in reader.fieldnames if name.isdigit()
        ]
        minute_columns.sort(key=int)
        for record in reader:
            rows.append(
                AzureFunctionRow(
                    owner=record["HashOwner"],
                    app=record["HashApp"],
                    function=record["HashFunction"],
                    trigger=record["Trigger"],
                    per_minute=tuple(
                        int(record[name] or 0) for name in minute_columns
                    ),
                )
            )
    return rows


def load_average_durations(path: str | Path) -> Dict[str, float]:
    """Parse a ``function_durations_percentiles`` CSV into key -> avg ms."""
    durations: Dict[str, float] = {}
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"HashOwner", "HashApp", "HashFunction", "Average"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(
                f"{path}: expected Azure duration columns, got {reader.fieldnames}"
            )
        for record in reader:
            key = (
                f"{record['HashOwner']}/{record['HashApp']}/"
                f"{record['HashFunction']}"
            )
            durations[key] = float(record["Average"] or 0.0)
    return durations


def select_by_duration(
    rows: Sequence[AzureFunctionRow],
    durations: Dict[str, float],
    definitions: Optional[Sequence[FunctionDefinition]] = None,
    min_invocations: int = 10,
) -> Dict[str, AzureFunctionRow]:
    """The §5.3 selection: for each Table 1 definition, the trace function
    whose average duration is closest to its execution time (chains match
    their whole-chain time).  Each trace function is used at most once.

    Returns ``{definition name: trace row}``.
    """
    definitions = list(definitions or all_definitions())
    candidates = [
        row
        for row in rows
        if row.key in durations and row.total_invocations >= min_invocations
    ]
    if len(candidates) < len(definitions):
        raise ValueError(
            f"need at least {len(definitions)} usable trace functions, "
            f"got {len(candidates)}"
        )
    taken: set = set()
    selection: Dict[str, AzureFunctionRow] = {}
    # Greedy, most-constrained first: longer functions have fewer close
    # matches in the (short-skewed) trace.
    for definition in sorted(
        definitions, key=lambda d: -d.total_exec_seconds
    ):
        target_ms = definition.total_exec_seconds * 1000.0
        best = min(
            (row for row in candidates if row.key not in taken),
            key=lambda row: abs(durations[row.key] - target_ms),
        )
        taken.add(best.key)
        selection[definition.name] = best
    return selection


def arrivals_from_counts(
    row: AzureFunctionRow,
    horizon_seconds: float,
    scale_factor: float = 1.0,
    seed: int = 0,
) -> List[float]:
    """Expand per-minute counts into arrival instants.

    Each minute's invocations spread uniformly at random inside it; the
    scale factor divides all times (compressing inter-arrivals, §5.3), and
    arrivals beyond the horizon are dropped.
    """
    if horizon_seconds <= 0 or scale_factor <= 0:
        raise ValueError("horizon and scale factor must be positive")
    rng = random.Random(seed ^ hash_stable(row.key))
    times: List[float] = []
    for minute, count in enumerate(row.per_minute):
        base = minute * 60.0
        for _ in range(count):
            t = (base + rng.random() * 60.0) / scale_factor
            if t < horizon_seconds:
                times.append(t)
    times.sort()
    return times


def build_replay_arrivals(
    selection: Dict[str, AzureFunctionRow],
    horizon_seconds: float,
    scale_factor: float = 1.0,
    seed: int = 0,
) -> List[Tuple[float, FunctionDefinition]]:
    """(time, definition) pairs replaying Table 1 functions with the
    selected trace functions' arrival patterns."""
    by_name = {d.name: d for d in all_definitions()}
    events: List[Tuple[float, FunctionDefinition]] = []
    for name, row in selection.items():
        definition = by_name[name]
        events.extend(
            (t, definition)
            for t in arrivals_from_counts(row, horizon_seconds, scale_factor, seed)
        )
    events.sort(key=lambda pair: pair[0])
    return events


def hash_stable(text: str) -> int:
    """Process-stable string hash (``hash()`` is salted per process)."""
    import zlib

    return zlib.crc32(text.encode())
