"""Platform telemetry: time series of the quantities Desiccant acts on.

A :class:`TelemetryRecorder` subscribes to its node's ``step`` events on
the simulation bus and samples cache state at a fixed interval -- frozen
memory, total cached memory, instance counts, cumulative cold
boots/evictions, and (when the manager is Desiccant) the live activation
threshold.  Each snapshot is re-published as a structured ``sample``
event, so trace sinks and other observers see telemetry through the same
channel as everything else.  Series export to CSV and render as ASCII
sparklines for quick inspection in examples.
"""

from __future__ import annotations

import csv
import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.report import write_csv
from repro.faas.platform import FaasPlatform
from repro.sim import Event, SAMPLE, STEP

_SPARK_GLYPHS = " .:-=+*#%@"


@dataclass
class TelemetrySample:
    """One snapshot of platform state."""

    time: float
    frozen_bytes: int
    used_bytes: int
    instances: int
    frozen_instances: int
    cold_boots: int
    evictions: int
    activation_threshold: Optional[float] = None


@dataclass
class TelemetryRecorder:
    """Samples a platform at a fixed interval via its bus subscription."""

    platform: FaasPlatform
    interval: float = 1.0
    #: Retain at most this many samples (``None`` = unbounded).  Macro
    #: replays sample for hours of simulated time; a bounded ring keeps
    #: recorder memory flat while every snapshot still goes out as a
    #: ``sample`` bus event for streaming consumers (trace sinks).
    max_samples: Optional[int] = None
    #: Stream every sample to this CSV as it is captured (rows identical
    #: to :meth:`to_csv`).  With ``max_samples`` bounding the in-memory
    #: ring this keeps recorder memory flat over arbitrarily long runs --
    #: shard workers stream one CSV per node and :meth:`flush` it at
    #: every epoch barrier, so a crashed worker loses at most one epoch
    #: of samples and the coordinator never holds a full series.  The
    #: file is created at the first sample (or at :meth:`detach`), so
    #: building a recorder never touches an existing stream -- a resumed
    #: run's recorders are built before the restore that reopens it.
    stream_csv: Optional[str | Path] = None
    samples: List[TelemetrySample] = field(default_factory=list)
    _next_sample_at: float = 0.0

    HEADERS = (
        "time",
        "frozen_bytes",
        "used_bytes",
        "instances",
        "frozen_instances",
        "cold_boots",
        "evictions",
        "activation_threshold",
    )

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.max_samples is not None:
            if self.max_samples <= 0:
                raise ValueError("max_samples must be positive")
            self.samples = deque(self.samples, maxlen=self.max_samples)
        self._stream_handle = None
        self._stream_writer = None
        self._subscription = self.platform.bus.subscribe(
            self._on_step, kinds=(STEP,), node=self.platform.node_id
        )

    def _on_step(self, event: Event) -> None:
        self(event.time)

    def _open_stream(self) -> None:
        """Create the streamed CSV and write its header row."""
        path = Path(self.stream_csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._stream_handle = path.open("w", newline="")
        self._stream_writer = csv.writer(self._stream_handle)
        self._stream_writer.writerow(self.HEADERS)

    def __call__(self, now: float) -> None:
        if now < self._next_sample_at:
            return
        self._next_sample_at = now + self.interval
        manager = self.platform.manager
        threshold = None
        activation = getattr(manager, "activation", None)
        if activation is not None:
            threshold = getattr(activation, "threshold", None)
        sample = TelemetrySample(
            time=now,
            frozen_bytes=self.platform.frozen_bytes(),
            used_bytes=self.platform.used_bytes(),
            instances=len(self.platform.all_instances()),
            frozen_instances=len(self.platform.frozen_instances()),
            cold_boots=self.platform.cold_boots,
            evictions=self.platform.evictions,
            activation_threshold=threshold,
        )
        self.samples.append(sample)
        # Once detached, direct calls still sample but stream nothing.
        if self.stream_csv is not None and self._subscription is not None:
            if self._stream_writer is None:
                self._open_stream()
            self._stream_writer.writerow(self._row(sample))
        self.platform.bus.publish(
            Event(
                SAMPLE,
                now,
                self.platform.node_id,
                {
                    "frozen_bytes": sample.frozen_bytes,
                    "used_bytes": sample.used_bytes,
                    "instances": sample.instances,
                    "frozen_instances": sample.frozen_instances,
                    "cold_boots": sample.cold_boots,
                    "evictions": sample.evictions,
                    "activation_threshold": sample.activation_threshold,
                },
            )
        )

    def flush(self) -> None:
        """Push buffered streamed rows to disk (epoch-barrier hook)."""
        if self._stream_handle is not None:
            self._stream_handle.flush()

    # ----------------------------------------------------------- checkpoint

    def __getstate__(self) -> dict:
        """Checkpoint state: drop the CSV handle, record its position.

        Captured at epoch barriers after :meth:`flush`, so the on-disk
        size is the logical stream position (0: not created yet);
        :meth:`reopen_outputs` truncates back to it and resumes appending.
        """
        state = dict(self.__dict__)
        handle = state.pop("_stream_handle", None)
        state.pop("_stream_writer", None)
        offset = 0
        if handle is not None:
            handle.flush()
            offset = os.fstat(handle.fileno()).st_size
        state["_stream_offset"] = offset
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stream_handle = None
        self._stream_writer = None

    def reopen_outputs(self) -> None:
        """Re-attach the streamed CSV after a checkpoint restore.

        A stream the capture had not created yet stays unopened: the
        next sample creates it afresh, as the uninterrupted run did.
        """
        offset = self.__dict__.pop("_stream_offset", 0)
        if self.stream_csv is None or self._stream_handle is not None or not offset:
            return
        path = Path(self.stream_csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        existing = path.stat().st_size if path.exists() else 0
        if existing < offset:
            raise ValueError(
                f"telemetry CSV {path} holds {existing} bytes but the "
                f"checkpoint recorded {offset}; cannot resume the stream"
            )
        with open(path, "ab") as grow:
            grow.truncate(offset)
        self._stream_handle = path.open("a", newline="")
        self._stream_writer = csv.writer(self._stream_handle)

    def detach(self) -> None:
        """Stop sampling (and close the streamed CSV, if any).

        A stream that never saw a sample is created here, header only.
        """
        if self._subscription is not None:
            self.platform.bus.unsubscribe(self._subscription)
            self._subscription = None
            if self.stream_csv is not None and self._stream_handle is None:
                self._open_stream()
        if self._stream_handle is not None:
            self._stream_handle.close()
            self._stream_handle = None
            self._stream_writer = None

    # --------------------------------------------------------------- series

    def series(self, attribute: str) -> List[float]:
        """One column of the recording, e.g. ``series('frozen_bytes')``."""
        return [getattr(sample, attribute) or 0 for sample in self.samples]

    @staticmethod
    def _row(s: TelemetrySample) -> List[object]:
        return [
            f"{s.time:.3f}",
            s.frozen_bytes,
            s.used_bytes,
            s.instances,
            s.frozen_instances,
            s.cold_boots,
            s.evictions,
            "" if s.activation_threshold is None else f"{s.activation_threshold:.3f}",
        ]

    def to_csv(self, path: str | Path) -> Path:
        # Generator, not list: rows stream straight into the csv writer,
        # so exporting never doubles the recorder's footprint.  Rows are
        # byte-identical to what ``stream_csv`` emits live.
        return write_csv(
            path, list(self.HEADERS), (self._row(s) for s in self.samples)
        )


def bucket_means(values: Sequence[float], width: int) -> List[float]:
    """Partition ``values`` into ``width`` contiguous buckets and average.

    Every element lands in exactly one bucket and every bucket is
    non-empty (bucket ``i`` spans ``[i*n//width, (i+1)*n//width)``), so
    downsampling neither skips nor double-counts samples.  With
    ``width >= len(values)`` the series is returned unchanged.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    n = len(values)
    if n <= width:
        return list(values)
    means = []
    for i in range(width):
        lo = i * n // width
        hi = (i + 1) * n // width
        bucket = values[lo:hi]
        means.append(sum(bucket) / len(bucket))
    return means


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a series as a one-line ASCII sparkline."""
    if not values:
        return ""
    values = bucket_means(values, width)
    lo, hi = min(values), max(values)
    span = hi - lo
    if span == 0:
        return _SPARK_GLYPHS[1] * len(values)
    out = []
    for value in values:
        rank = int((value - lo) / span * (len(_SPARK_GLYPHS) - 1))
        out.append(_SPARK_GLYPHS[rank])
    return "".join(out)
