"""Tests for the JSONL event-trace sink over a real platform run."""

import json

from repro.core import Desiccant
from repro.faas.platform import FaasPlatform, PlatformConfig, Request
from repro.mem.layout import MIB
from repro.sim import EventTraceSink
from repro.trace.archive import ArchiveWriter, finalize_archive
from repro.workloads.registry import get_definition


def run_traced(manager=None, count=4, **config):
    platform = FaasPlatform(config=PlatformConfig(**config), manager=manager)
    sink = EventTraceSink(platform.bus)
    definition = get_definition("file-hash")
    platform.submit(
        [Request(arrival=i * 1.0, definition=definition) for i in range(count)]
    )
    platform.run()
    return platform, sink


class TestEventTraceSink:
    def test_records_the_platform_lifecycle(self):
        _platform, sink = run_traced()
        kinds = [json.loads(line)["kind"] for line in sink.lines]
        assert "request-arrival" in kinds
        assert "cold-boot" in kinds
        assert "thaw" in kinds
        assert "freeze" in kinds
        assert "request-done" in kinds

    def test_step_events_are_excluded_by_default(self):
        _platform, sink = run_traced()
        assert all(json.loads(line)["kind"] != "step" for line in sink.lines)

    def test_every_line_is_valid_json_with_schema_fields(self):
        _platform, sink = run_traced()
        for line in sink.lines:
            record = json.loads(line)
            assert {"seq", "t", "node", "kind"} <= set(record)

    def test_trace_is_time_ordered(self):
        _platform, sink = run_traced()
        times = [json.loads(line)["t"] for line in sink.lines]
        assert times == sorted(times)
        seqs = [json.loads(line)["seq"] for line in sink.lines]
        assert seqs == sorted(seqs)

    def test_nested_publishes_stay_seq_ordered(self):
        # The eager manager makes the bridge publish a nested ``gc`` from
        # inside the ``invocation-end`` dispatch; run-to-completion
        # delivery must keep the trace in seq order regardless of the
        # sink's position in the subscription list.
        from repro.core import EagerGcManager

        _platform, sink = run_traced(manager=EagerGcManager())
        records = [json.loads(line) for line in sink.lines]
        assert any(r["kind"] == "gc" for r in records)
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)

    def test_ids_are_normalized_to_dense_indexes(self):
        _platform, sink = run_traced()
        request_ids = {
            json.loads(line)["request_id"]
            for line in sink.lines
            if json.loads(line)["kind"] == "request-arrival"
        }
        assert request_ids == set(range(1, len(request_ids) + 1))
        instance_ids = {
            json.loads(line).get("instance_id")
            for line in sink.lines
            if json.loads(line)["kind"] == "cold-boot"
        }
        assert min(instance_ids) == 1

    def test_object_references_are_not_serialized(self):
        _platform, sink = run_traced()
        for line in sink.lines:
            assert "instance\":" not in line.replace("instance_id", "")

    def test_reclaim_events_appear_under_pressure(self):
        from repro.core import ActivationController

        desiccant = Desiccant(activation=ActivationController(floor=0.1, ceiling=0.1))
        desiccant.config.freeze_timeout_seconds = 0.1
        platform = FaasPlatform(
            config=PlatformConfig(capacity_bytes=512 * MIB), manager=desiccant
        )
        sink = EventTraceSink(platform.bus)
        for name in ("sort", "file-hash", "fft"):
            definition = get_definition(name)
            platform.submit(
                [
                    Request(arrival=platform.now + 5.0 + i * 2.0, definition=definition)
                    for i in range(2)
                ]
            )
            platform.run()
        assert desiccant.reclaims > 0
        kinds = [json.loads(line)["kind"] for line in sink.lines]
        assert "reclaim-start" in kinds
        assert "reclaim-done" in kinds

    def test_detach_stops_recording(self):
        platform, sink = run_traced()
        n = len(sink)
        sink.detach()
        platform.submit(
            [Request(arrival=platform.now + 1.0, definition=get_definition("clock"))]
        )
        platform.run()
        assert len(sink) == n

    def test_streaming_write(self, tmp_path):
        """A single platform emits one node's stream, so the flat file
        composed from an archive-backed sink is an in-memory sink's
        lines in the sink's own order."""
        platform = FaasPlatform()
        stored = EventTraceSink(platform.bus)
        writer = ArchiveWriter(tmp_path / "arc", bucket_seconds=1.0)
        streamed = EventTraceSink(platform.bus, archive=writer)
        platform.submit(
            [
                Request(arrival=i * 0.5, definition=get_definition("clock"))
                for i in range(8)
            ]
        )
        platform.run()
        stored.detach()
        streamed.detach()
        path = tmp_path / "trace.jsonl"
        finalize_archive(
            tmp_path / "arc",
            1.0,
            footers=writer.close()["segments"],
            event_trace_path=path,
        )
        assert len(writer.close()["segments"]) > 1
        assert path.read_text().splitlines() == stored.lines
        assert streamed.lines == [] and len(streamed) == len(stored) > 0

    def test_write_collected(self, tmp_path):
        _platform, sink = run_traced()
        path = sink.write(tmp_path / "out" / "trace.jsonl")
        assert path.read_text() == sink.to_jsonl()
