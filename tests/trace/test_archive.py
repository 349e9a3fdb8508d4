"""Tests for the segmented trace archive (repro.trace.archive).

The contract under test (docs/TRACE_ARCHIVE.md):

* **addressing** is a pure function of ``(t, node)`` -- no catalog;
* **determinism** -- segment bytes are a pure function of their payload
  (pinned gzip header), so archives are byte-identical across runs *and*
  across how producers were partitioned (shard counts 1/2/4/7);
* **composition** -- per-segment digests compose to the whole-run
  SHA-256: pack -> window-read -> concat reproduces the original JSONL
  byte for byte;
* **windowing** -- a ``[t_start, t_end) x nodes`` read touches only the
  segments the window addresses (asserted via the reader's I/O witness).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import Violation, check_archive_writer, check_trace_archive
from repro.sim import checkpoint
from repro.sim.shard import sha256_lines
from repro.trace.archive import (
    ARCHIVE_SCHEMA,
    MANIFEST_NAME,
    ArchiveReader,
    ArchiveWriter,
    _OpenSegment,
    bucket_of,
    finalize_archive,
    gzip_member,
    pack,
    parse_segment_name,
    segment_name,
)
from repro.trace.encode import ID_KEYS, encode_line
from tests.oracles import reference_merge_trace_lines, reference_segment_bytes

# ------------------------------------------------------------- fixtures


def _record(t, node, seq):
    return json.dumps(
        {"seq": seq, "t": t, "node": node, "kind": "step"},
        sort_keys=False,
        separators=(",", ":"),
    )


def _canonical(events):
    """Canonical ``(t, node, seq)`` stream from (t, node) pairs: seq is
    dense per node, global order time-major."""
    per_node = {}
    keyed = []
    for t, node in sorted(events, key=lambda e: e[0]):
        seq = per_node.get(node, 0)
        per_node[node] = seq + 1
        keyed.append((t, node, seq))
    keyed.sort()
    return [_record(t, node, seq) for t, node, seq in keyed]


def _keyed(lines, shards=1, shard=0):
    """``(t, node, line)`` items of the ``lines`` whose node falls in
    ``shard`` of ``shards``, each read back with ``json.loads``."""
    items = []
    for line in lines:
        record = json.loads(line)
        if record["node"] % shards == shard:
            items.append((record["t"], record["node"], line))
    return items


def _write_archive(root, lines, bucket_seconds=10.0):
    """One writer archives ``lines``; ``finalize_archive`` stamps the
    manifest from its footers.  Returns the composed count and digest."""
    writer = ArchiveWriter(root, bucket_seconds=bucket_seconds)
    writer.add_many(_keyed(lines))
    events, sha = finalize_archive(
        root, bucket_seconds, footers=writer.close()["segments"]
    )
    return {"events": events, "sha256": sha}


EVENTS = [(float(step % 37) + 0.25 * (step % 4), step % 5) for step in range(400)]


def _noisy_entries(count, seed, node=3):
    """``count`` ``(t, line)`` pairs of one node, 1 ms apart, each with
    random hex in its payload: they compress poorly, so a segment of a
    few thousand spans many compressed blocks."""
    rng = random.Random(seed)
    maps = {key: {} for key in ID_KEYS}
    entries = []
    for seq in range(count):
        t = round(seq * 0.001, 9)
        data = {"blob": f"{rng.getrandbits(128):032x}"}
        entries.append((t, encode_line(seq, t, node, "step", data, maps)))
    return entries


@pytest.fixture(scope="module")
def stream():
    return _canonical(EVENTS)


# ------------------------------------------------------------ addressing


class TestAddressing:
    def test_bucket_of_is_floor_division(self):
        assert bucket_of(0.0, 10.0) == 0
        assert bucket_of(9.999, 10.0) == 0
        assert bucket_of(10.0, 10.0) == 1
        assert bucket_of(125.0, 60.0) == 2

    def test_bucket_of_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bucket_of(1.0, 0.0)
        with pytest.raises(ValueError):
            bucket_of(-0.5, 10.0)

    def test_segment_name_roundtrip(self):
        name = segment_name(7, 3)
        assert name == "seg-b00000007-n003.jsonl.gz"
        assert parse_segment_name(name) == (7, 3)

    def test_non_segment_names_rejected(self):
        for name in (
            "MANIFEST.json",
            "seg-b1-n1.jsonl.gz",
            "other.gz",
            "seg-b00000007-n003.csv.gz",
        ):
            assert parse_segment_name(name) is None


# ---------------------------------------------------------- determinism


class TestGzipDeterminism:
    def test_member_header_is_pinned(self):
        # mtime=0, no filename, OS byte 0xff: the whole header is fixed.
        member = gzip_member(b"payload\n")
        assert member[:10] == b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
        assert gzip.decompress(member) == b"payload\n"

    def test_member_bytes_are_reproducible(self):
        data = b"x" * 10_000
        assert gzip_member(data) == gzip_member(data)

    def test_archives_identical_across_runs(self, tmp_path, stream):
        _write_archive(tmp_path / "a", stream)
        _write_archive(tmp_path / "b", stream)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_archives_identical_across_shard_counts(
        self, tmp_path, stream, shards
    ):
        """Satellite property: K writers over disjoint node partitions
        fill a shared root with byte-identical segments, and the
        finalized manifest matches the single-writer one."""
        reference = tmp_path / "serial"
        _write_archive(reference, stream)

        root = tmp_path / f"s{shards}"
        for shard in range(shards):
            writer = ArchiveWriter(root, bucket_seconds=10.0)
            writer.add_many(_keyed(stream, shards, shard))
            writer.close()
        finalize_archive(root)

        names = sorted(p.name for p in reference.iterdir())
        assert sorted(p.name for p in root.iterdir()) == names
        for name in names:
            assert (root / name).read_bytes() == (
                reference / name
            ).read_bytes(), name


@settings(max_examples=30, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=2500),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_segment_framing_matches_gzipfile(tmp_path_factory, count, seed, data):
    """However the payload reaches a segment -- in runs of any length,
    around a pickle/unpickle of the half-written segment (a checkpoint
    and its restore) -- the file is byte-identical to the
    ``GzipFile``-framed reference fed the same payload in any other
    chunking."""
    entries = _noisy_entries(count, seed)
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=12)))
    pickle_after = data.draw(st.none() | st.integers(0, len(cuts)))
    path = tmp_path_factory.mktemp("seg") / segment_name(0, 3)
    segment = _OpenSegment(path, 0, 3)
    bounds = [0, *cuts, count]
    for index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        run = entries[lo:hi]
        if run:
            segment.write_many(run)
        if index == pickle_after:
            blob = pickle.dumps(segment, protocol=checkpoint.PICKLE_PROTOCOL)
            segment.raw.close()
            segment = pickle.loads(blob)  # rewrites the file
    footer = segment.close(10.0)

    payload = b"".join(line.encode("utf-8") + b"\n" for _, line in entries)
    splits = sorted(data.draw(st.lists(st.integers(0, len(payload)), max_size=12)))
    chunks = [payload[a:b] for a, b in zip([0, *splits], [*splits, len(payload)])]
    stamped = {k: v for k, v in footer.items() if k not in ("name", "compressed_bytes")}
    footer_line = json.dumps(stamped, sort_keys=True, separators=(",", ":")) + "\n"
    expected = reference_segment_bytes(chunks, footer_line.encode("utf-8"))
    assert path.read_bytes() == expected
    assert footer["compressed_bytes"] == len(expected)


class TestBoundedMemory:
    def test_open_segment_holds_no_per_line_objects(self, tmp_path):
        """Writing 10,000 lines into an open segment allocates nothing
        that stays: the compressor, the hash and the file buffer exist
        before the first line."""
        entries = _noisy_entries(10_000, seed=5)
        segment = _OpenSegment(tmp_path / segment_name(0, 3), 0, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for entry in entries:
                segment.write_many([entry])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert segment.close(10.0)["events"] == 10_000
        assert held < 64 * 1024, held

    @staticmethod
    def _one_bucket(root, per_node):
        """Four nodes' ``per_node`` lines in one 600 s bucket, written by
        two writers; returns the footers they ship."""
        writers = [ArchiveWriter(root, bucket_seconds=600.0) for _ in range(2)]
        for node in range(4):
            writers[node % 2].add_many(
                [
                    (t, node, line)
                    for t, line in _noisy_entries(per_node, seed=node, node=node)
                ]
            )
        return [footer for writer in writers for footer in writer.close()["segments"]]

    def test_finalize_peak_does_not_grow_with_the_bucket(self, tmp_path):
        """Composing a bucket four times as long peaks within a fixed
        margin of the short one: a reader holds one block per segment and
        the hash one digest chunk, not the bucket's lines."""
        peaks = []
        for scale in (1, 4):
            root = tmp_path / f"x{scale}"
            footers = self._one_bucket(root, 1500 * scale)
            tracemalloc.start()
            try:
                finalize_archive(root, 600.0, footers=footers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 128 * 1024, peaks

    @pytest.mark.parametrize("damage", ["flip-late", "truncate-mid"])
    def test_damage_past_the_first_block_fails_by_name(self, tmp_path, damage):
        """A segment damaged far past its first block, after lines have
        already streamed into the merge, still fails every reader with a
        message that starts with its name."""
        root = tmp_path / "arc"
        footers = self._one_bucket(root, 3000)
        victim = root / segment_name(0, 1)
        blob = bytearray(victim.read_bytes())
        assert len(blob) > 16 * 2048
        if damage == "truncate-mid":
            del blob[len(blob) // 2 :]
        else:
            # Late in the payload's deflate stream: the footer member
            # and the payload trailer take the last ~200 bytes.
            blob[len(blob) - 512] ^= 0x01
        victim.write_bytes(bytes(blob))
        reader = ArchiveReader(root, bucket_seconds=600.0)
        for read in (
            lambda: finalize_archive(root, 600.0, footers=footers),
            lambda: list(reader.iter_window()),
            reader.compose,
        ):
            with pytest.raises(ValueError) as caught:
                read()
            assert str(caught.value).startswith(victim.name), str(caught.value)
        _, _, problems = ArchiveReader(root).verify()
        assert any(problem.startswith(victim.name) for problem in problems), problems


# ---------------------------------------------------------- composition


class TestComposition:
    def test_composed_digest_equals_flat_digest(self, tmp_path, stream):
        summary = _write_archive(tmp_path, stream)
        events, flat_sha = sha256_lines(stream)
        assert summary["events"] == events
        assert summary["sha256"] == flat_sha
        reader = ArchiveReader(tmp_path)
        assert reader.compose() == (events, flat_sha)
        assert reader.verify(against_sha256=flat_sha) == (events, flat_sha, [])

    def test_full_window_read_reproduces_stream(self, tmp_path, stream):
        _write_archive(tmp_path, stream)
        assert list(ArchiveReader(tmp_path).iter_window()) == stream

    def test_pack_roundtrip(self, tmp_path, stream):
        flat = tmp_path / "flat.jsonl"
        flat.write_text("".join(line + "\n" for line in stream))
        events, sha = pack(flat, tmp_path / "arc", bucket_seconds=10.0)
        assert (events, sha) == sha256_lines(stream)
        assert list(ArchiveReader(tmp_path / "arc").iter_window()) == stream

    def test_pack_refuses_existing_archive(self, tmp_path, stream):
        flat = tmp_path / "flat.jsonl"
        flat.write_text("".join(line + "\n" for line in stream[:5]))
        pack(flat, tmp_path / "arc")
        with pytest.raises(FileExistsError):
            pack(flat, tmp_path / "arc")

    def test_pack_rejects_truncated_last_line(self, tmp_path, stream):
        # A crashed writer's last line: its envelope head is whole, the
        # rest of the object is missing.
        flat = tmp_path / "flat.jsonl"
        flat.write_text(
            "".join(line + "\n" for line in stream[:5])
            + '{"seq":5,"t":1.5,"node":0,"kind":"inv\n'
        )
        with pytest.raises(json.JSONDecodeError):
            pack(flat, tmp_path / "arc")

    def test_empty_archive(self, tmp_path):
        summary = _write_archive(tmp_path, [])
        assert summary["events"] == 0
        reader = ArchiveReader(tmp_path)
        assert reader.segments() == []
        events, sha = reader.compose()
        assert events == 0
        assert reader.verify(against_sha256=sha) == (0, sha, [])

    def test_empty_archive_records_its_writers_width(self, tmp_path):
        """With no segment to read a footer from, the manifest records
        the width the archive was written with, not the default."""
        flat = tmp_path / "empty.jsonl"
        flat.write_text("")
        assert pack(flat, tmp_path / "packed", bucket_seconds=10.0) == (
            0,
            hashlib.sha256(b"").hexdigest(),
        )
        writer = ArchiveWriter(tmp_path / "finalized", bucket_seconds=10.0)
        finalize_archive(
            tmp_path / "finalized", 10.0, footers=writer.close()["segments"]
        )
        for root in (tmp_path / "packed", tmp_path / "finalized"):
            manifest = json.loads((root / MANIFEST_NAME).read_text())
            assert (manifest["events"], manifest["segments"]) == (0, 0)
            assert manifest["bucket_seconds"] == 10.0
            assert ArchiveReader(root).bucket_seconds == 10.0

    def test_single_event_segment(self, tmp_path):
        line = _record(3.5, 2, 0)
        _write_archive(tmp_path, [line])
        reader = ArchiveReader(tmp_path)
        infos = reader.segments()
        assert [(i.bucket, i.node) for i in infos] == [(0, 2)]
        payload, footer = reader.read_segment(infos[0].name, verify=True)
        assert payload == [line]
        assert footer["t_min"] == footer["t_max"] == 3.5
        assert footer["schema"] == ARCHIVE_SCHEMA

    def test_writer_manifest_matches_finalize(self, tmp_path, stream):
        a, b = tmp_path / "a", tmp_path / "b"
        _write_archive(a, stream)
        writer = ArchiveWriter(b, bucket_seconds=10.0)
        writer.add_many(_keyed(stream))
        writer.close()
        finalize_archive(b)
        assert (a / "MANIFEST.json").read_bytes() == (
            b / "MANIFEST.json"
        ).read_bytes()


# ------------------------------------------------------------ windowing


class TestWindowedReads:
    def _expect(self, stream, t_start, t_end, nodes=None):
        out = []
        for line in stream:
            record = json.loads(line)
            if t_start is not None and record["t"] < t_start:
                continue
            if t_end is not None and record["t"] >= t_end:
                continue
            if nodes is not None and record["node"] not in nodes:
                continue
            out.append(line)
        return out

    def test_window_matches_filtered_stream(self, tmp_path, stream):
        _write_archive(tmp_path, stream)
        reader = ArchiveReader(tmp_path)
        got = list(reader.iter_window(t_start=12.0, t_end=31.5, nodes=(1, 3)))
        assert got == self._expect(stream, 12.0, 31.5, {1, 3})

    def test_window_reads_only_addressed_segments(self, tmp_path, stream):
        """Acceptance criterion: the I/O witness must show no segment
        outside the window's bucket range / node set was ever opened."""
        _write_archive(tmp_path, stream)
        reader = ArchiveReader(tmp_path)
        t_start, t_end, nodes = 12.0, 31.5, (1, 3)
        list(reader.iter_window(t_start=t_start, t_end=t_end, nodes=nodes))
        assert reader.segments_read  # the window is non-empty
        lo = bucket_of(t_start, reader.bucket_seconds)
        hi = bucket_of(t_end, reader.bucket_seconds)
        for name in reader.segments_read:
            bucket, node = parse_segment_name(name)
            assert lo <= bucket <= hi, name
            assert node in nodes, name

    def test_boundary_clipping_is_exact(self, tmp_path, stream):
        _write_archive(tmp_path, stream)
        reader = ArchiveReader(tmp_path)
        # Boundaries mid-bucket, on a record time, and on a bucket edge.
        for t_start, t_end in ((12.25, 12.26), (10.0, 20.0), (0.0, 0.25)):
            got = list(reader.iter_window(t_start=t_start, t_end=t_end))
            assert got == self._expect(stream, t_start, t_end), (t_start, t_end)


# -------------------------------------------------------------- property


@settings(max_examples=40, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400).map(lambda k: k / 8.0),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=120,
    ),
    shards=st.sampled_from([1, 2, 4, 7]),
    window=st.tuples(
        st.integers(min_value=0, max_value=400).map(lambda k: k / 8.0),
        st.integers(min_value=0, max_value=400).map(lambda k: k / 8.0),
    ),
)
def test_pack_window_concat_is_byte_identical(tmp_path_factory, events, shards, window):
    """Satellite property test: for random streams, shard counts, and
    windows, pack -> window-read -> concat reproduces the original JSONL
    byte-identically, and complementary windows partition the stream."""
    tmp_path = tmp_path_factory.mktemp("arc")
    stream = _canonical(events)
    root = tmp_path / "arc"
    for shard in range(shards):
        writer = ArchiveWriter(root, bucket_seconds=7.5)
        writer.add_many(_keyed(stream, shards, shard))
        writer.close()
    events_count, sha = finalize_archive(root)
    assert (events_count, sha) == sha256_lines(stream)

    reader = ArchiveReader(root)
    assert list(reader.iter_window(verify=True)) == stream

    cut = sorted(window)
    before = list(reader.iter_window(t_end=cut[0]))
    middle = list(reader.iter_window(t_start=cut[0], t_end=cut[1]))
    after = list(reader.iter_window(t_start=cut[1]))
    assert before + middle + after == stream


# ------------------------------------------------------- writer contract


class TestWriterContract:
    def test_rejects_time_going_backwards_within_node(self, tmp_path):
        writer = ArchiveWriter(tmp_path, bucket_seconds=10.0)
        writer.add_many([(5.0, 0, _record(5.0, 0, 0))])
        with pytest.raises(ValueError, match="backwards"):
            writer.add_many([(4.0, 0, _record(4.0, 0, 1))])
        with pytest.raises(ValueError, match="backwards"):
            writer.add_many(
                [(6.0, 0, _record(6.0, 0, 1)), (5.5, 0, _record(5.5, 0, 2))]
            )

    def test_rejects_reopening_a_closed_bucket(self, tmp_path):
        writer = ArchiveWriter(tmp_path, bucket_seconds=10.0)
        writer.add_many(
            [(5.0, 0, _record(5.0, 0, 0)), (15.0, 0, _record(15.0, 0, 1))]
        )
        with pytest.raises(ValueError, match="backwards"):
            writer.add_many([(5.0, 0, _record(5.0, 0, 2))])

    def test_other_nodes_are_independent(self, tmp_path):
        writer = ArchiveWriter(tmp_path, bucket_seconds=10.0)
        writer.add_many(
            [
                (15.0, 0, _record(15.0, 0, 0)),
                (5.0, 1, _record(5.0, 1, 0)),  # fine: different node
            ]
        )
        summary = writer.close()
        assert summary["events"] == 2

    def test_add_after_close_rejected(self, tmp_path):
        writer = ArchiveWriter(tmp_path, bucket_seconds=10.0)
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.add_many([(1.0, 0, _record(1.0, 0, 0))])

    def test_flush_does_not_change_final_bytes(self, tmp_path, stream):
        plain = tmp_path / "plain"
        flushed = tmp_path / "flushed"
        _write_archive(plain, stream)
        writer = ArchiveWriter(flushed, bucket_seconds=10.0)
        for item in _keyed(stream):
            writer.add_many([item])
            writer.flush()  # epoch-barrier hook: raw flush only
        finalize_archive(flushed, 10.0, footers=writer.close()["segments"])
        for path in sorted(plain.iterdir()):
            assert (flushed / path.name).read_bytes() == path.read_bytes()

    def test_manifest_names_the_one_segment_format(self, tmp_path, stream):
        _write_archive(tmp_path, stream)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert (manifest["kind"], manifest["suffix"]) == ("events", ".jsonl.gz")

    def test_reader_refuses_another_kind_by_name(self, tmp_path, stream):
        _write_archive(tmp_path, stream)
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["kind"] = "rows"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as caught:
            ArchiveReader(tmp_path)
        assert str(caught.value).startswith(f"{tmp_path}: archive kind 'rows'")


# ------------------------------------------------------------ invariants


class TestInvariants:
    def test_corruption_is_detected(self, tmp_path, stream):
        _write_archive(tmp_path, stream)
        victim = sorted(tmp_path.glob("seg-*"))[0]
        blob = bytearray(victim.read_bytes())
        # Byte 16 sits in the payload member's deflate stream (the pinned
        # gzip header is 10 bytes); flipping it corrupts decoded content.
        blob[16] ^= 0x01
        victim.write_bytes(bytes(blob))
        _, _, problems = ArchiveReader(tmp_path).verify()
        assert problems
        with pytest.raises(Violation, match="archive-verify"):
            check_trace_archive(tmp_path)

    def test_check_archive_writer_passes_live_writer(self, tmp_path, stream):
        writer = ArchiveWriter(tmp_path, bucket_seconds=10.0)
        writer.add_many(_keyed(stream))
        check_archive_writer(writer)  # mid-run sweep: no violation
        writer.events += 1  # plant bookkeeping drift
        with pytest.raises(Violation, match="archive-writer"):
            check_archive_writer(writer)

    def test_check_trace_archive_against_external_digest(self, tmp_path, stream):
        _write_archive(tmp_path, stream)
        _, sha = sha256_lines(stream)
        check_trace_archive(tmp_path, against_sha256=sha)
        with pytest.raises(Violation, match="archive-verify"):
            check_trace_archive(tmp_path, against_sha256="0" * 64)


# ----------------------------------------------- manifest-driven finalize


def _sharded_writer_footers(root, stream, shards=2):
    """Write a multi-writer archive and collect the shipped footers."""
    footers = []
    for shard in range(shards):
        writer = ArchiveWriter(root, bucket_seconds=10.0)
        writer.add_many(_keyed(stream, shards, shard))
        footers.extend(writer.close()["segments"])
    return footers


class TestManifestDrivenFinalize:
    def test_footer_path_matches_legacy_path(self, tmp_path, stream):
        legacy_root = tmp_path / "legacy"
        _sharded_writer_footers(legacy_root, stream)
        events_legacy, sha_legacy = finalize_archive(legacy_root)

        footer_root = tmp_path / "footers"
        footers = _sharded_writer_footers(footer_root, stream)
        events, sha = finalize_archive(footer_root, 10.0, footers=footers)

        assert (events, sha) == (events_legacy, sha_legacy)
        assert (footer_root / "MANIFEST.json").read_bytes() == (
            legacy_root / "MANIFEST.json"
        ).read_bytes()

    def test_event_trace_path_writes_flat_twin(self, tmp_path, stream):
        root = tmp_path / "arc"
        footers = _sharded_writer_footers(root, stream)
        flat = tmp_path / "flat.jsonl"
        events, sha = finalize_archive(
            root, 10.0, footers=footers, event_trace_path=flat
        )
        lines = flat.read_text().splitlines()
        assert len(lines) == events == len(stream)
        assert lines == stream
        _, flat_sha = sha256_lines(lines)
        assert flat_sha == sha

    def test_footer_event_miscount_rejected(self, tmp_path, stream):
        root = tmp_path / "arc"
        footers = _sharded_writer_footers(root, stream)
        footers[0] = dict(footers[0], events=footers[0]["events"] + 1)
        with pytest.raises(ValueError, match="segment manifest"):
            finalize_archive(root, 10.0, footers=footers)


# ------------------------------------------ two-writer composition oracle

#: ``(t, node)`` events over three 10 s buckets; nodes tie on ``t``
#: inside every bucket, and 1e-05 is spelled without a fraction.
_TIED_EVENTS = [
    (1e-05, 0), (1e-05, 3), (0.5, 1), (0.5, 2), (0.5, 0), (4.25, 3),
    (9.75, 2), (9.75, 1), (10.0, 0), (10.0, 1), (10.0, 2), (10.0, 3),
    (12.5, 3), (12.5, 0), (19.999, 1), (20.0, 2), (20.0, 0), (27.125, 3),
]


def _per_node_streams(events):
    """Each node's encoded lines in its own ``(t, seq)`` order, the way
    a node-canonical sink writes them."""
    streams = {}
    for t, node in sorted(events, key=lambda event: event[0]):
        lines = streams.setdefault(node, [])
        maps = {key: {} for key in ID_KEYS}
        data = {"function": f"fn{node}", "note": "caf\u00e9"}
        lines.append(encode_line(len(lines), t, node, "step", data, maps))
    return streams


class TestTwoWriterComposition:
    """Two writers with disjoint nodes fill one root; the coordinator's
    finalize must compose exactly what the ``json.loads`` oracle merge
    composes."""

    def _archive(self, root):
        streams = _per_node_streams(_TIED_EVENTS)
        writers = {
            0: ArchiveWriter(root, bucket_seconds=10.0),
            1: ArchiveWriter(root, bucket_seconds=10.0),
        }
        for node, lines in sorted(streams.items()):
            writers[node % 2].add_many(
                [(json.loads(line)["t"], node, line) for line in lines]
            )
        footers = []
        for writer in writers.values():
            footers.extend(writer.close()["segments"])
        return streams, footers

    def test_finalize_matches_oracle_merge(self, tmp_path):
        root = tmp_path / "arc"
        streams, footers = self._archive(root)
        assert len({f["bucket"] for f in footers}) >= 2
        assert len({f["node"] for f in footers}) == 4
        oracle = list(reference_merge_trace_lines(list(streams.values())))
        flat = tmp_path / "flat.jsonl"
        composed = finalize_archive(
            root, 10.0, footers=footers, event_trace_path=flat
        )
        assert composed == sha256_lines(oracle)
        assert flat.read_text(encoding="utf-8") == "".join(
            line + "\n" for line in oracle
        )
        assert composed[1] == hashlib.sha256(flat.read_bytes()).hexdigest()
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert manifest["sha256"] == composed[1]
        assert ArchiveReader(root).verify(against_sha256=composed[1]) == (
            *composed,
            [],
        )

    def test_flipped_payload_byte_fails_by_name(self, tmp_path):
        """A payload byte flipped under intact gzip framing is caught by
        the footer digest, and the error names the segment.  (A flip in
        the compressed bytes trips gzip's own CRC first.)"""
        root = tmp_path / "arc"
        _, footers = self._archive(root)
        victim = root / segment_name(1, 2)
        with gzip.open(victim, "rb") as handle:
            payload, footer = handle.read().rsplit(b"\n", 2)[:2]
        flipped = bytearray(payload + b"\n")
        flipped[12] ^= 0x01
        victim.write_bytes(gzip_member(bytes(flipped)) + gzip_member(footer + b"\n"))
        with pytest.raises(ValueError, match=victim.name):
            finalize_archive(root, 10.0, footers=footers)
        _, _, problems = ArchiveReader(root).verify()
        assert any(victim.name in problem for problem in problems)

    @pytest.mark.parametrize("damage", ["flip16", "flip30", "flip60", "half"])
    def test_unreadable_segment_fails_by_name(self, tmp_path, damage):
        """Corrupt compressed bytes or a truncated file make every reader
        raise a ``ValueError`` that starts with the segment's name, and
        ``verify`` reports that message as it is, once.  On this segment
        the flips fail gzip's CRC (byte 16) or the deflate stream (bytes
        30 and 60), and the truncation ends the stream early."""
        root = tmp_path / "arc"
        _, footers = self._archive(root)
        victim = root / segment_name(0, 1)
        blob = bytearray(victim.read_bytes())
        if damage == "half":
            del blob[len(blob) // 2 :]
        else:
            blob[int(damage[4:])] ^= 0x01
        victim.write_bytes(bytes(blob))
        named = rf"^{victim.name}: unreadable \("
        reader = ArchiveReader(root)
        with pytest.raises(ValueError, match=named) as caught:
            reader.read_segment(victim.name)
        for read in (
            lambda: list(reader.iter_window()),
            lambda: finalize_archive(root),
            lambda: finalize_archive(root, 10.0, footers=footers),
        ):
            with pytest.raises(ValueError, match=named):
                read()
        assert ArchiveReader(root).verify()[2] == [str(caught.value)]

    @pytest.mark.parametrize(
        "footer", [b'{"schema": "repro-trace-arch', b"[1, 2]", b'"footer"']
    )
    def test_unparsable_footer_fails_by_name(self, tmp_path, footer):
        """Without a manifest or a bucket width, ``finalize_archive``
        probes the first segment's footer for the width.  A footer member
        that is not a JSON object fails as ``read_segment`` does, naming
        the segment, not as a bare decode or attribute error."""
        root = tmp_path / "arc"
        self._archive(root)
        victim = root / segment_name(0, 0)
        assert victim.name == "seg-b00000000-n000.jsonl.gz"
        with gzip.open(victim, "rb") as handle:
            payload = handle.read().rsplit(b"\n", 2)[0]
        victim.write_bytes(gzip_member(payload + b"\n") + gzip_member(footer + b"\n"))
        named = rf"^{victim.name}: missing footer"
        with pytest.raises(ValueError, match=named):
            finalize_archive(root)
        with pytest.raises(ValueError, match=named):
            ArchiveReader(root, bucket_seconds=10.0).read_segment(victim.name)

    @pytest.mark.parametrize(
        "framing, named",
        [
            ("third-member", "data after the footer member"),
            ("unterminated-payload", "payload ends inside a line"),
        ],
    )
    def test_misframed_segment_fails_by_name(self, tmp_path, framing, named):
        """A segment is exactly a newline-terminated payload member and a
        footer member: anything else fails by name, not by misreading a
        payload line as the footer or a footer line as payload."""
        root = tmp_path / "arc"
        self._archive(root)
        victim = root / segment_name(0, 1)
        with gzip.open(victim, "rb") as handle:
            payload, footer = handle.read().rsplit(b"\n", 2)[:2]
        if framing == "third-member":
            members = [payload + b"\n", footer + b"\n", b"extra\n"]
        else:
            members = [payload, footer + b"\n"]
        victim.write_bytes(b"".join(gzip_member(member) for member in members))
        reader = ArchiveReader(root, bucket_seconds=10.0)
        with pytest.raises(ValueError, match=rf"^{victim.name}: {named}"):
            reader.read_segment(victim.name)
        assert any(
            problem.startswith(f"{victim.name}: {named}")
            for problem in reader.verify()[2]
        )
