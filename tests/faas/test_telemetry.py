"""Unit tests for platform telemetry."""

import pytest

from repro.core import Desiccant
from repro.faas.platform import FaasPlatform, PlatformConfig, Request
from repro.faas.telemetry import TelemetryRecorder, bucket_means, sparkline
from repro.sim import SAMPLE
from repro.workloads.registry import get_definition


def run_recorded(manager=None, count=8):
    platform = FaasPlatform(manager=manager)
    recorder = TelemetryRecorder(platform, interval=0.5)
    definition = get_definition("file-hash")
    platform.submit(
        [Request(arrival=i * 1.0, definition=definition) for i in range(count)]
    )
    platform.run()
    return platform, recorder


class TestRecorder:
    def test_samples_collected_at_interval(self):
        _platform, recorder = run_recorded()
        assert len(recorder.samples) >= 4
        times = [s.time for s in recorder.samples]
        assert times == sorted(times)
        assert all(b - a >= 0.5 - 1e-9 for a, b in zip(times, times[1:]))

    def test_invalid_interval_rejected(self):
        platform = FaasPlatform()
        with pytest.raises(ValueError):
            TelemetryRecorder(platform, interval=0.0)

    def test_counters_monotonic(self):
        _platform, recorder = run_recorded()
        cold = recorder.series("cold_boots")
        assert cold == sorted(cold)

    def test_threshold_recorded_for_desiccant(self):
        _platform, recorder = run_recorded(manager=Desiccant())
        thresholds = [s.activation_threshold for s in recorder.samples]
        assert all(t is not None for t in thresholds)

    def test_threshold_absent_for_vanilla(self):
        _platform, recorder = run_recorded()
        assert all(s.activation_threshold is None for s in recorder.samples)

    def test_detach_stops_sampling(self):
        platform, recorder = run_recorded()
        n = len(recorder.samples)
        recorder.detach()
        platform.submit(
            [Request(arrival=platform.now + 5.0, definition=get_definition("clock"))]
        )
        platform.run()
        assert len(recorder.samples) == n

    def test_csv_export(self, tmp_path):
        _platform, recorder = run_recorded()
        path = recorder.to_csv(tmp_path / "telemetry.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("time,frozen_bytes")
        assert len(lines) == len(recorder.samples) + 1

    def test_max_samples_keeps_only_the_tail(self):
        platform = FaasPlatform()
        recorder = TelemetryRecorder(platform, interval=0.5, max_samples=3)
        platform.submit(
            [Request(arrival=i * 1.0, definition=get_definition("clock")) for i in range(8)]
        )
        platform.run()
        assert len(recorder.samples) == 3
        # The ring keeps the newest samples, still time-ordered.
        times = [s.time for s in recorder.samples]
        assert times == sorted(times)
        assert times[-1] > 4.0

    def test_max_samples_still_publishes_every_sample(self):
        """The ring bounds the *recorder*; streaming consumers on the bus
        still see every snapshot."""
        platform = FaasPlatform()
        recorder = TelemetryRecorder(platform, interval=0.5, max_samples=2)
        seen = []
        platform.bus.subscribe(seen.append, kinds=(SAMPLE,))
        platform.submit(
            [Request(arrival=i * 1.0, definition=get_definition("clock")) for i in range(6)]
        )
        platform.run()
        assert len(recorder.samples) == 2
        assert len(seen) > 2

    def test_invalid_max_samples_rejected(self):
        platform = FaasPlatform()
        with pytest.raises(ValueError):
            TelemetryRecorder(platform, max_samples=0)

    def test_csv_export_with_ring(self, tmp_path):
        platform = FaasPlatform()
        recorder = TelemetryRecorder(platform, interval=0.5, max_samples=4)
        platform.submit(
            [Request(arrival=i * 1.0, definition=get_definition("clock")) for i in range(8)]
        )
        platform.run()
        path = recorder.to_csv(tmp_path / "ring.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == len(recorder.samples) + 1 == 5

    def test_publishes_sample_events_on_the_bus(self):
        platform = FaasPlatform()
        recorder = TelemetryRecorder(platform, interval=0.5)
        seen = []
        platform.bus.subscribe(seen.append, kinds=(SAMPLE,))
        platform.submit(
            [Request(arrival=i * 1.0, definition=get_definition("clock")) for i in range(4)]
        )
        platform.run()
        assert len(seen) == len(recorder.samples) > 0
        assert all("used_bytes" in event.data for event in seen)


class TestBucketMeans:
    def test_width_covers_every_element_exactly_once(self):
        values = list(range(10))
        means = bucket_means(values, 3)
        # Buckets [0,3), [3,6), [6,10): exact partition, nothing skipped
        # or double-counted (the old stride-based downsampler did both).
        assert means == [1.0, 4.0, 7.5]
        assert sum(means[i] * n for i, n in enumerate((3, 3, 4))) == sum(values)

    def test_width_greater_than_length_passes_through(self):
        assert bucket_means([1.0, 2.0, 3.0], 10) == [1.0, 2.0, 3.0]

    def test_width_equal_to_length_passes_through(self):
        assert bucket_means([1.0, 2.0], 2) == [1.0, 2.0]

    def test_constant_series_stays_constant(self):
        assert bucket_means([7.0] * 100, 13) == [7.0] * 13

    def test_every_bucket_nonempty(self):
        # 7 values into 5 buckets: no bucket may be empty (the old
        # downsampler could produce empty slices and divide by zero).
        means = bucket_means(list(range(7)), 5)
        assert len(means) == 5

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            bucket_means([1.0], 0)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series(self):
        assert set(sparkline([5, 5, 5])) == {"."}

    def test_ramp_monotone(self):
        line = sparkline(list(range(10)))
        assert line[0] == " "
        assert line[-1] == "@"

    def test_downsamples_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40


class TestStreaming:
    def test_streamed_csv_matches_to_csv(self, tmp_path):
        platform = FaasPlatform()
        stream_path = tmp_path / "stream.csv"
        recorder = TelemetryRecorder(
            platform, interval=0.5, stream_csv=stream_path
        )
        definition = get_definition("file-hash")
        platform.submit(
            [Request(arrival=i * 1.0, definition=definition) for i in range(8)]
        )
        platform.run()
        recorder.flush()  # epoch-barrier hook: rows visible on disk now
        flushed = stream_path.read_text()
        assert len(flushed.splitlines()) == len(recorder.samples) + 1
        recorder.detach()
        # The streamed rows are the same bytes to_csv writes from the ring.
        exported = recorder.to_csv(tmp_path / "export.csv")
        assert stream_path.read_text() == exported.read_text()

    def test_building_a_recorder_leaves_the_stream_alone(self, tmp_path):
        """A resumed cluster run builds its recorders before the restore
        that reopens the captured CSV, so construction must not touch it."""
        stream_path = tmp_path / "stream.csv"
        stream_path.write_text("captured rows\n")
        TelemetryRecorder(FaasPlatform(), stream_csv=stream_path)
        assert stream_path.read_text() == "captured rows\n"

    def test_unsampled_stream_is_header_only_after_detach(self, tmp_path):
        stream_path = tmp_path / "stream.csv"
        recorder = TelemetryRecorder(FaasPlatform(), stream_csv=stream_path)
        recorder.detach()
        recorder.detach()
        assert stream_path.read_text().splitlines() == [
            ",".join(TelemetryRecorder.HEADERS)
        ]

    def test_ring_bound_does_not_truncate_stream(self, tmp_path):
        platform = FaasPlatform()
        stream_path = tmp_path / "stream.csv"
        recorder = TelemetryRecorder(
            platform, interval=0.5, stream_csv=stream_path, max_samples=2
        )
        definition = get_definition("file-hash")
        platform.submit(
            [Request(arrival=i * 1.0, definition=definition) for i in range(8)]
        )
        platform.run()
        recorder.detach()
        assert len(recorder.samples) == 2  # ring kept only the tail
        assert len(stream_path.read_text().splitlines()) > 3  # stream kept all
