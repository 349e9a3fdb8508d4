"""Segmented trace archive: compressed, indexed, windowed trace storage.

Flat JSONL event traces scale linearly in both bytes and verification
time: a gigabyte-class Azure-x40 trace can only be checked by scanning it
end to end.  This module replaces "one growing file per run" with an
*archive*: a directory of time-bucketed, node-sharded, gzip-compressed
segments, each carrying an embedded footer index, addressed purely
algorithmically from ``(t, node)`` -- there is no catalog database.

Layout
------
::

    out.trarc/
        MANIFEST.json                  # archive-level summary (see below)
        seg-b00000000-n000.jsonl.gz    # bucket 0, node 0
        seg-b00000000-n003.jsonl.gz    # bucket 0, node 3
        seg-b00000001-n000.jsonl.gz    # bucket 1, node 0
        ...

Segment ``seg-b<B>-n<N>`` holds exactly node ``N``'s records with
``B * bucket_seconds <= t < (B + 1) * bucket_seconds``, in the node's own
canonical ``(t, seq)`` order.  Empty buckets have no file (the archive is
sparse).  The address of any event is a pure function of its time and
node::

    bucket = int(t // bucket_seconds)
    name   = f"seg-b{bucket:08d}-n{node:03d}.jsonl.gz"

Segment file format
-------------------
Two concatenated gzip members (readable as one stream by any gzip tool):

1. the **payload**: the newline-terminated record lines;
2. the **footer**: one JSON line with ``schema``, ``bucket``, ``node``,
   ``bucket_seconds``, ``events``, ``t_min``, ``t_max``, and the SHA-256
   of the exact payload bytes.

Both members are framed deterministically -- a pinned gzip header
(``mtime=0``, no embedded filename) and :data:`COMPRESSLEVEL` -- so a
segment's bytes are a pure function of its payload.  Because each
``(bucket, node)`` cell is written by exactly one producer and contains
only that node's canonical records, **archives are byte-identical across
runs and shard counts**.

Digest composition
------------------
The pre-existing whole-run witness is ``sha256`` over the canonical
``(t, node, seq)``-ordered JSONL bytes (:func:`repro.sim.shard.sha256_lines`).
Buckets partition time, so that stream is exactly the concatenation, in
bucket order, of the per-bucket ``(t, node, seq)`` merges of the bucket's
per-node segments::

    whole_sha = sha256( ++_{b ascending} merge_{n}(payload[b, n]) )

:func:`ArchiveReader.compose` streams that merge, verifying every footer
digest on the way -- so per-segment digests compose to the existing
whole-run SHA-256 and every current digest gate keeps working unchanged.
Each segment is inflated :data:`_BLOCK_BYTES` compressed bytes at a time
and keys its lines with :func:`repro.trace.encode.line_key`, which reads
``(t, node, seq)`` off the line's envelope (only a line it cannot read
is parsed with ``json.loads``); a bucket is one ``heapq.merge`` of its
segments' keyed streams.  Memory holds one block per open segment and
one digest chunk, whatever the bucket width or the run's length.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import re
import zlib
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.trace.encode import line_key

__all__ = [
    "ARCHIVE_SCHEMA",
    "COMPRESSLEVEL",
    "DEFAULT_BUCKET_SECONDS",
    "MANIFEST_NAME",
    "ArchiveWriter",
    "ArchiveReader",
    "SegmentInfo",
    "bucket_of",
    "segment_name",
    "parse_segment_name",
    "gzip_member",
    "pack",
    "finalize_archive",
]

#: Schema tag stamped into every footer and manifest.
ARCHIVE_SCHEMA = "repro-trace-archive/1"

#: The one pinned compression level.  Part of the byte-identity contract:
#: changing it changes every archive's bytes, so it is a schema property,
#: not a knob.
COMPRESSLEVEL = 6

#: Default simulated seconds per time bucket.
DEFAULT_BUCKET_SECONDS = 60.0

MANIFEST_NAME = "MANIFEST.json"

_SEGMENT_RE = re.compile(r"^seg-b(\d{8,})-n(\d{3,})\.jsonl\.gz$")


def bucket_of(t: float, bucket_seconds: float) -> int:
    """The time-bucket index of simulated second ``t`` -- the ``f(t)``
    half of the algorithmic segment address.  Bucket ``b`` covers
    ``[b * bucket_seconds, (b + 1) * bucket_seconds)``."""
    if bucket_seconds <= 0:
        raise ValueError("bucket_seconds must be positive")
    if t < 0:
        raise ValueError(f"negative simulated time {t}")
    return int(t // bucket_seconds)


def segment_name(bucket: int, node: int) -> str:
    """The segment filename for ``(bucket, node)`` -- no catalog lookup."""
    return f"seg-b{bucket:08d}-n{node:03d}.jsonl.gz"


def parse_segment_name(name: str) -> Optional[Tuple[int, int]]:
    """``(bucket, node)`` for a segment filename, else ``None``."""
    match = _SEGMENT_RE.match(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


#: The header of every gzip member an archive writes: magic, deflate, no
#: flags, ``mtime=0``, no extra flags, OS byte 0xff -- the bytes
#: ``gzip.GzipFile(filename="", mtime=0, compresslevel=COMPRESSLEVEL)``
#: writes.  (Bare ``gzip.open`` embeds the wall-clock mtime, which the
#: determinism lint therefore bans in ``src/``.)
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"

#: Compressed bytes per read when a reader inflates a segment.
_BLOCK_BYTES = 2048

#: Parsed lines :func:`pack` hands the writer per call.
_PACK_CHUNK_LINES = 1024


def _deflater():
    """A raw-deflate compressor at the pinned level, as ``GzipFile`` makes."""
    return zlib.compressobj(COMPRESSLEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)


def _gzip_trailer(crc: int, size: int) -> bytes:
    """A member's trailer: CRC-32 and size mod 2**32, little-endian."""
    return crc.to_bytes(4, "little") + (size & 0xFFFFFFFF).to_bytes(4, "little")


def gzip_member(data: bytes) -> bytes:
    """Compress ``data`` as one deterministic gzip member."""
    compressor = _deflater()
    body = compressor.compress(data) + compressor.flush()
    return _GZIP_HEADER + body + _gzip_trailer(zlib.crc32(data), len(data))


# ------------------------------------------------------------------ writer


class _OpenSegment:
    """One segment mid-write: raw file, payload deflate stream, running footer.

    The payload member is framed by hand the way ``gzip.GzipFile(
    filename="", mtime=0, compresslevel=COMPRESSLEVEL)`` frames it: the
    pinned header, raw deflate, then the CRC-32/size trailer at
    :meth:`close`.  Nothing is kept per line, so a segment costs the
    compressor's fixed state however many lines it holds.

    A checkpoint (:mod:`repro.sim.checkpoint`) pickles the payload bytes
    written so far, recovered by inflating what is on disk plus a flush of
    a *copy* of the compressor, and a restore rewrites the file and feeds
    them through a fresh compressor.  The live compressor is never
    flushed before :meth:`close`, so the final bytes are a pure function
    of the payload and the rewrite reproduces exactly the bytes an
    uninterrupted run emits.
    """

    __slots__ = (
        "bucket", "node", "path", "raw", "deflate", "crc",
        "events", "t_min", "t_max", "sha", "payload_bytes",
    )

    def __init__(self, path: Path, bucket: int, node: int) -> None:
        self.bucket = bucket
        self.node = node
        self.path = path
        self.raw = path.open("wb")
        self.raw.write(_GZIP_HEADER)
        self.deflate = _deflater()
        self.crc = 0
        self.events = 0
        self.t_min: Optional[float] = None
        self.t_max: Optional[float] = None
        self.sha = hashlib.sha256()
        self.payload_bytes = 0

    def _append(self, data: bytes) -> None:
        self.raw.write(self.deflate.compress(data))
        self.crc = zlib.crc32(data, self.crc)
        self.sha.update(data)
        self.payload_bytes += len(data)

    def write_many(self, entries: Sequence[Tuple[float, str]]) -> None:
        """Append ``(t, line)`` pairs: one compressor write, one hash
        update, and one bookkeeping pass for the whole run.  Callers
        guarantee nondecreasing times within one segment's bucket."""
        data = "\n".join(line for _, line in entries).encode("utf-8") + b"\n"
        self._append(data)
        self.events += len(entries)
        if self.t_min is None:
            self.t_min = entries[0][0]
        self.t_max = entries[-1][0]

    def __getstate__(self) -> Dict[str, object]:
        # Open OS handles, the compressor and the running hash cannot
        # pickle; the payload bytes rebuild all of them.  They are the
        # deflate stream on disk completed by a flushed *copy* of the
        # compressor, inflated: the live compressor is left as it is.
        self.raw.flush()
        written = self.path.read_bytes()[len(_GZIP_HEADER):]
        stream = written + self.deflate.copy().flush()
        return {
            "bucket": self.bucket,
            "node": self.node,
            "path": str(self.path),
            "payload": zlib.decompress(stream, -zlib.MAX_WBITS),
            "events": self.events,
            "t_min": self.t_min,
            "t_max": self.t_max,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(Path(state["path"]), state["bucket"], state["node"])
        self._append(state["payload"])
        self.events = state["events"]
        self.t_min = state["t_min"]
        self.t_max = state["t_max"]

    def close(self, bucket_seconds: float) -> Dict[str, object]:
        """Finish the payload member, append the footer member, return
        the footer (with the segment name and compressed size added)."""
        self.raw.write(
            self.deflate.flush() + _gzip_trailer(self.crc, self.payload_bytes)
        )
        footer = {
            "schema": ARCHIVE_SCHEMA,
            "bucket": self.bucket,
            "node": self.node,
            "bucket_seconds": bucket_seconds,
            "events": self.events,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "payload_bytes": self.payload_bytes,
            "sha256": self.sha.hexdigest(),
        }
        line = json.dumps(footer, sort_keys=True, separators=(",", ":"))
        self.raw.write(gzip_member(line.encode("utf-8") + b"\n"))
        self.raw.flush()
        compressed = self.raw.tell()
        self.raw.close()
        footer["name"] = self.path.name
        footer["compressed_bytes"] = compressed
        return footer


class ArchiveWriter:
    """Segment-rolling writer: feed ``(t, node, line)``, get an archive.

    Keeps at most one open segment per node; when a node's stream crosses
    into a new bucket the current segment is finalized (footer appended)
    and the next one opened -- memory stays constant no matter how long
    the run is.  Per-node times must be nondecreasing (true of any
    node-canonical event stream and of a ``(t, node, seq)``-merged
    stream), and a closed bucket is never reopened, which is what makes
    the segment bytes independent of how producers were partitioned.

    Several writers may share one ``root`` as long as they write disjoint
    node sets (shard workers do exactly this).  A writer never writes the
    manifest: whoever owns the archive runs :func:`finalize_archive` on
    the footers :meth:`close` returns.
    """

    def __init__(
        self, root: str | Path, bucket_seconds: float = DEFAULT_BUCKET_SECONDS
    ) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.bucket_seconds = float(bucket_seconds)
        self.events = 0
        self._open: Dict[int, _OpenSegment] = {}
        self._last_bucket: Dict[int, int] = {}
        self._closed: List[Dict[str, object]] = []
        self._closed_flag = False

    # ------------------------------------------------------------ writing

    def _segment_for(self, t: float, node: int, bucket: int) -> _OpenSegment:
        """The open segment ``(bucket, node)`` writes into, rolling the
        node's previous segment (footer appended) when the stream crossed
        a bucket boundary, and enforcing per-node monotonicity."""
        segment = self._open.get(node)
        if segment is not None and segment.bucket != bucket:
            if bucket < segment.bucket:
                raise ValueError(
                    f"node {node} time went backwards: bucket {bucket} after "
                    f"{segment.bucket}"
                )
            self._closed.append(segment.close(self.bucket_seconds))
            segment = None
        if segment is None:
            last = self._last_bucket.get(node)
            if last is not None and bucket <= last:
                raise ValueError(
                    f"node {node} bucket {bucket} already finalized "
                    f"(last was {last})"
                )
            segment = _OpenSegment(self.root / segment_name(bucket, node), bucket, node)
            self._open[node] = segment
            self._last_bucket[node] = bucket
        elif segment.t_max is not None and t < segment.t_max:
            raise ValueError(
                f"node {node} time went backwards: {t} after {segment.t_max}"
            )
        return segment

    def add_many(self, items: Sequence[Tuple[float, int, str]]) -> None:
        """Append a chunk of ``(t, node, line)`` records in one call.

        Items are grouped into maximal same-``(node, bucket)`` runs, and
        each run hits its segment with one compressor write and one
        SHA-256 update.  The bytes produced -- segment payloads and
        footers -- do not depend on how the records were chunked.
        Per-node time monotonicity and closed buckets are checked per run
        *before* writing it.
        """
        if self._closed_flag:
            raise ValueError("archive writer is closed")
        if not items:
            return
        bucket_seconds = self.bucket_seconds
        i, n = 0, len(items)
        while i < n:
            t, node, _ = items[i]
            bucket = bucket_of(t, bucket_seconds)
            j = i + 1
            while j < n:
                nt, nnode, _ = items[j]
                if nnode != node or bucket_of(nt, bucket_seconds) != bucket:
                    break
                j += 1
            segment = self._segment_for(t, node, bucket)
            run = items[i:j]
            previous = segment.t_max if segment.t_max is not None else t
            for rt, _, _ in run:
                if rt < previous:
                    raise ValueError(
                        f"node {node} time went backwards: {rt} after "
                        f"{previous}"
                    )
                previous = rt
            segment.write_many([(rt, line) for rt, _, line in run])
            i = j
        self.events += n

    def flush(self) -> None:
        """Push finished compressed bytes to the OS (epoch-barrier hook).

        Deliberately does *not* sync-flush the gzip compressors: a zlib
        sync flush injects marker blocks whose placement would depend on
        barrier timing, breaking byte-identity.  Crash loss is bounded by
        one compressor buffer per node.
        """
        for segment in self._open.values():
            segment.raw.flush()

    # ------------------------------------------------------------ closing

    def close(self) -> Dict[str, object]:
        """Finalize all open segments and return ``{"events", "segments"}``:
        the count written and every segment's footer, sorted by ``(bucket,
        node)``.

        The footers are what :func:`finalize_archive` composes the archive
        from and checks it against; a shard worker ships them to its
        coordinator.  Closing twice returns the same summary.
        """
        if not self._closed_flag:
            for node in sorted(self._open):
                self._closed.append(self._open[node].close(self.bucket_seconds))
            self._open.clear()
            self._closed_flag = True
        return {
            "events": self.events,
            "segments": sorted(
                self._closed, key=lambda f: (f["bucket"], f["node"])
            ),
        }

    # ----------------------------------------------------------- checking

    def self_check(self) -> List[str]:
        """Internal-consistency problems (empty list == healthy).

        The writer-side half of the digest-composition invariant, cheap
        enough to sweep at every epoch barrier: open segments must agree
        with their own bookkeeping and with the addressing function, and
        closed-segment footers must sum to the writer's global count.
        """
        problems = []
        for node, segment in sorted(self._open.items()):
            subject = f"open segment {segment.path.name}"
            if segment.node != node:
                problems.append(f"{subject}: keyed under node {node}")
            if segment.events == 0:
                problems.append(f"{subject}: open with zero events")
                continue
            if segment.t_min is None or segment.t_max is None:
                problems.append(f"{subject}: missing time range")
                continue
            if segment.t_min > segment.t_max:
                problems.append(
                    f"{subject}: t_min {segment.t_min} > t_max {segment.t_max}"
                )
            for bound in (segment.t_min, segment.t_max):
                if bucket_of(bound, self.bucket_seconds) != segment.bucket:
                    problems.append(
                        f"{subject}: t={bound} addresses bucket "
                        f"{bucket_of(bound, self.bucket_seconds)}, "
                        f"not {segment.bucket}"
                    )
        closed_events = sum(f["events"] for f in self._closed)
        open_events = sum(s.events for s in self._open.values())
        if closed_events + open_events != self.events:
            problems.append(
                f"event count drift: {closed_events} closed + {open_events} "
                f"open != {self.events} written"
            )
        return problems


def write_manifest(
    root: str | Path,
    bucket_seconds: float,
    footers: Sequence[Dict[str, object]],
    sha256: str,
) -> Path:
    """Write the archive-level summary.  Purely informational: addressing
    never consults it, but readers use it for ``bucket_seconds`` and the
    composed digest, and ``repro trace verify`` re-derives every field.
    ``kind`` and ``suffix`` name the one segment format there is."""
    events = sum(f["events"] for f in footers)
    manifest = {
        "schema": ARCHIVE_SCHEMA,
        "kind": "events",
        "suffix": ".jsonl.gz",
        "bucket_seconds": bucket_seconds,
        "segments": len(footers),
        "events": events,
        "sha256": sha256,
        "nodes": sorted({f["node"] for f in footers}),
        "buckets": (
            [
                min(f["bucket"] for f in footers),
                max(f["bucket"] for f in footers),
            ]
            if footers
            else []
        ),
        "t_min": min((f["t_min"] for f in footers), default=None),
        "t_max": max((f["t_max"] for f in footers), default=None),
        "compressed_bytes": sum(f["compressed_bytes"] for f in footers),
        "payload_bytes": sum(f.get("payload_bytes", 0) for f in footers),
    }
    path = Path(root) / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# ------------------------------------------------------------------ reader


@dataclass(frozen=True)
class SegmentInfo:
    """One segment as addressed on disk."""

    name: str
    bucket: int
    node: int


def _inflate(handle: IO[bytes]) -> Iterator[Tuple[int, bytes]]:
    """``(member, data)``: each gzip member of ``handle`` in turn, inflated
    as the file is read :data:`_BLOCK_BYTES` compressed bytes at a time.

    ``zlib`` parses every member's header and checks its CRC-32 and size
    trailer (``zlib.error``); a file that ends inside a member raises
    ``EOFError``.
    """
    member, inflate = 0, None
    for block in iter(lambda: handle.read(_BLOCK_BYTES), b""):
        while block:
            if inflate is None:
                inflate = zlib.decompressobj(16 + zlib.MAX_WBITS)
            data = inflate.decompress(block)
            if data:
                yield member, data
            if not inflate.eof:
                break
            block, inflate = inflate.unused_data, None
            member += 1
    if inflate is not None:
        raise EOFError(
            "compressed file ended before the end-of-stream marker was reached"
        )


class ArchiveReader:
    """Range reads over an archive, opening only the touched segments.

    Every segment the reader actually opens is appended to
    :attr:`segments_read` -- the I/O witness the windowed-read tests (and
    anyone tuning bucket size) assert against.
    """

    def __init__(
        self, root: str | Path, bucket_seconds: Optional[float] = None
    ) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise FileNotFoundError(f"no archive directory at {self.root}")
        self.manifest: Optional[Dict[str, object]] = None
        manifest_path = self.root / MANIFEST_NAME
        if manifest_path.is_file():
            self.manifest = json.loads(manifest_path.read_text())
            kind = self.manifest.get("kind", "events")
            if kind != "events":
                raise ValueError(
                    f"{self.root}: archive kind {kind!r}; only event "
                    "archives can be read"
                )
        #: Names of segments opened so far, in open order.
        self.segments_read: List[str] = []
        if bucket_seconds is not None:
            self.bucket_seconds = float(bucket_seconds)
        elif self.manifest is not None:
            self.bucket_seconds = float(self.manifest["bucket_seconds"])
        else:
            self.bucket_seconds = self._probe_bucket_seconds()
            self.segments_read.clear()  # the probe reads no window

    def _probe_bucket_seconds(self) -> float:
        """Without a manifest, any one footer names the bucket width."""
        for info in self.segments():
            return float(self.read_footer(info.name)["bucket_seconds"])
        return DEFAULT_BUCKET_SECONDS

    # ---------------------------------------------------------- addressing

    def segments(self) -> List[SegmentInfo]:
        """Existing segments, sorted by ``(bucket, node)`` -- a directory
        scan, not a catalog read."""
        found = []
        for path in self.root.iterdir():
            parsed = parse_segment_name(path.name)
            if parsed is not None:
                found.append(SegmentInfo(path.name, *parsed))
        return sorted(found, key=lambda s: (s.bucket, s.node))

    # ------------------------------------------------------------- reading

    def _segment(
        self,
        name: str,
        verify: bool = False,
        footers: Optional[List[Dict[str, object]]] = None,
    ) -> Iterator[List[Tuple[Tuple[float, int, int], str]]]:
        """The payload of segment ``name`` as ``(line_key(line), line)``
        pairs in file order, one list per inflated block.

        The file is inflated :data:`_BLOCK_BYTES` compressed bytes at a
        time, so the reader holds one block's lines whatever the
        segment's size.  When the payload member ends, the footer member
        is parsed and appended to ``footers`` (if given); with ``verify``
        the payload's digest, line count and byte count, and the footer's
        addressing and time range, are checked then.  Every failure is a
        ``ValueError`` whose message starts with ``name``: a file that
        cannot be read, inflated or decoded (``<name>: unreadable
        (<cause>)``), a line with no merge key, a missing footer, or a
        failed check.
        """
        self.segments_read.append(name)
        digest = hashlib.sha256() if verify else None
        events = payload_bytes = 0
        tail = footer_bytes = b""
        try:
            with open(self.root / name, "rb") as handle:
                for member, data in _inflate(handle):
                    if member:
                        if member > 1:
                            raise ValueError(f"{name}: data after the footer member")
                        footer_bytes += data
                        continue
                    payload_bytes += len(data)
                    if digest is not None:
                        digest.update(data)
                    data = tail + data
                    cut = data.rfind(b"\n") + 1
                    tail = data[cut:]
                    if not cut:
                        continue
                    lines = data[: cut - 1].decode("utf-8").split("\n")
                    events += len(lines)
                    try:
                        keyed = [(line_key(line), line) for line in lines]
                    except (ValueError, KeyError, TypeError) as exc:
                        raise ValueError(
                            f"{name}: a payload line has no (t, node, seq) "
                            f"key ({exc})"
                        ) from exc
                    yield keyed
        except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
            raise ValueError(f"{name}: unreadable ({exc})") from exc
        if tail:
            raise ValueError(f"{name}: payload ends inside a line")
        try:
            footer = json.loads(footer_bytes)
        except ValueError:
            footer = None
        if not isinstance(footer, dict) or footer.get("schema") != ARCHIVE_SCHEMA:
            raise ValueError(f"{name}: missing footer (truncated segment?)")
        if footers is not None:
            footers.append(footer)
        if digest is not None:
            problems = self._verify_segment(
                name, footer, events, payload_bytes, digest.hexdigest()
            )
            if problems:
                raise ValueError("; ".join(problems))

    def read_segment(
        self, name: str, verify: bool = False
    ) -> Tuple[List[str], Dict[str, object]]:
        """``(payload_lines, footer)`` of one segment.

        With ``verify=True`` the payload is re-hashed and the footer's
        count, digest, time range, and addressing are all checked.  Every
        failure is a ``ValueError`` whose message starts with ``name``.
        """
        footers: List[Dict[str, object]] = []
        blocks = self._segment(name, verify, footers)
        payload = [line for block in blocks for _, line in block]
        return payload, footers[0]

    def read_footer(self, name: str, verify: bool = False) -> Dict[str, object]:
        """The footer of one segment, streaming its payload past (checked
        as :meth:`read_segment` checks it) without keeping any of it."""
        footers: List[Dict[str, object]] = []
        for _ in self._segment(name, verify, footers):
            pass
        return footers[0]

    @staticmethod
    def _verify_segment(
        name: str,
        footer: Dict[str, object],
        events: int,
        payload_bytes: int,
        sha256: str,
    ) -> List[str]:
        """What a streamed payload of ``events`` lines, ``payload_bytes``
        bytes and digest ``sha256`` contradicts in its footer."""
        problems = []
        if sha256 != footer["sha256"]:
            problems.append(
                f"{name}: payload sha256 {sha256[:12]} != "
                f"footer {str(footer['sha256'])[:12]}"
            )
        if events != footer["events"]:
            problems.append(
                f"{name}: {events} payload lines != footer events "
                f"{footer['events']}"
            )
        parsed = parse_segment_name(name)
        if parsed is not None and (footer["bucket"], footer["node"]) != parsed:
            problems.append(
                f"{name}: footer addresses (bucket {footer['bucket']}, "
                f"node {footer['node']}) but the filename says {parsed}"
            )
        width = float(footer["bucket_seconds"])
        for bound in (footer["t_min"], footer["t_max"]):
            if bound is not None and bucket_of(bound, width) != footer["bucket"]:
                problems.append(
                    f"{name}: t={bound} outside bucket {footer['bucket']} "
                    f"(width {width})"
                )
        recorded_bytes = footer.get("payload_bytes")
        if recorded_bytes is not None and recorded_bytes != payload_bytes:
            problems.append(
                f"{name}: {payload_bytes} payload bytes != footer "
                f"payload_bytes {recorded_bytes}"
            )
        return problems

    def _buckets(
        self,
        infos: Sequence[SegmentInfo],
        verify: bool = False,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
    ) -> Iterator[Iterator[str]]:
        """The canonical lines of each bucket of ``infos`` (sorted by
        bucket): one ``heapq.merge`` of its segments' keyed streams,
        clipped to ``[t_start, t_end)`` in a bucket a bound falls in."""
        width = self.bucket_seconds
        for bucket, group in itertools.groupby(infos, lambda info: info.bucket):
            merged = heapq.merge(
                *[
                    itertools.chain.from_iterable(self._segment(info.name, verify))
                    for info in group
                ]
            )
            boundary = (
                t_start is not None and bucket == bucket_of(t_start, width)
            ) or (
                t_end is not None and bucket * width < t_end <= (bucket + 1) * width
            )
            if boundary:
                merged = (
                    record
                    for record in merged
                    if (t_start is None or record[0][0] >= t_start)
                    and (t_end is None or record[0][0] < t_end)
                )
            yield map(itemgetter(1), merged)

    def iter_window(
        self,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
        nodes: Optional[Sequence[int]] = None,
        verify: bool = False,
    ) -> Iterator[str]:
        """Stream the canonical record lines of a ``[t_start, t_end)``
        window, touching only the segments the window addresses.

        The per-node segments of each bucket are merged by ``(t, node,
        seq)``, so concatenating the buckets reproduces the exact
        canonical stream -- the composition rule.
        """
        node_set = None if nodes is None else set(nodes)
        selected = []
        for info in self.segments():
            if node_set is not None and info.node not in node_set:
                continue
            lo = info.bucket * self.bucket_seconds
            hi = lo + self.bucket_seconds
            if t_start is not None and hi <= t_start:
                continue
            if t_end is not None and lo >= t_end:
                continue
            selected.append(info)
        return itertools.chain.from_iterable(
            self._buckets(selected, verify, t_start, t_end)
        )

    def compose(self, verify: bool = True) -> Tuple[int, str]:
        """``(events, sha256)`` of the whole archive in canonical order.

        This *is* the digest-composition rule: with ``verify=True`` every
        segment footer is checked as it streams past, so a matching
        composed digest certifies both the parts and the whole.
        """
        from repro.sim.shard import sha256_lines

        return sha256_lines(self.iter_window(verify=verify))

    # ------------------------------------------------------------ verifying

    def verify(
        self, against_sha256: Optional[str] = None
    ) -> Tuple[int, str, List[str]]:
        """Full integrity sweep: ``(events, sha256, problems)``.

        One pass checks every segment against its footer (digest, count,
        time range, addressing); a second composes the segments that
        passed -- one that failed stays out, its lines may not even key
        -- and checks the composed whole-archive digest against the
        manifest and, optionally, an external expectation (the flat-file
        twin's SHA-256).  The composition is hashed in 1024-line chunks,
        and its event count and digest are returned with the problems
        (an empty list == verified).
        """
        from repro.sim.shard import sha256_lines

        problems: List[str] = []
        passed: List[SegmentInfo] = []
        for info in self.segments():
            try:
                self.read_footer(info.name, verify=True)
            except ValueError as exc:  # names the segment
                problems.append(str(exc))
            else:
                passed.append(info)
        events, composed = sha256_lines(
            itertools.chain.from_iterable(self._buckets(passed))
        )
        if self.manifest is not None:
            if self.manifest.get("events") != events:
                problems.append(
                    f"manifest events {self.manifest.get('events')} != "
                    f"{events} composed"
                )
            recorded = self.manifest.get("sha256")
            if recorded is not None and recorded != composed:
                problems.append(
                    f"manifest sha256 {str(recorded)[:12]} != composed "
                    f"{composed[:12]}"
                )
        if against_sha256 is not None and against_sha256 != composed:
            problems.append(
                f"composed digest {composed[:12]} != expected "
                f"{against_sha256[:12]}"
            )
        return events, composed, problems


# ------------------------------------------------------------- packing


def pack(
    jsonl_path: str | Path,
    root: str | Path,
    bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
) -> Tuple[int, str]:
    """Pack a legacy flat JSONL trace into a segmented archive.

    Streams -- the flat file is never resident -- and returns ``(events,
    sha256)`` where the digest covers the flat file's exact line bytes,
    which (for a canonical input) equals the archive's composed digest.
    """
    root = Path(root)
    if root.exists():
        stale = [
            p.name
            for p in root.iterdir()
            if p.name == MANIFEST_NAME or parse_segment_name(p.name)
        ]
        if stale:
            raise FileExistsError(
                f"{root} already holds an archive ({len(stale)} files); "
                "pack into a fresh directory"
            )
    from repro.sim.shard import sha256_lines

    writer = ArchiveWriter(root, bucket_seconds=bucket_seconds)
    chunk: List[Tuple[float, int, str]] = []

    def archived(handle: IO[str]) -> Iterator[str]:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            # Parsed in full, not keyed off the envelope: the file comes
            # from outside, and a malformed line must fail here.
            record = json.loads(line)
            chunk.append((record["t"], record["node"], line))
            if len(chunk) >= _PACK_CHUNK_LINES:
                writer.add_many(chunk)
                chunk.clear()
            yield line

    with open(jsonl_path, "r", encoding="utf-8") as handle:
        flat = sha256_lines(archived(handle))
    writer.add_many(chunk)
    finalize_archive(root, bucket_seconds, footers=writer.close()["segments"])
    return flat


def finalize_archive(
    root: str | Path,
    bucket_seconds: Optional[float] = None,
    footers: Optional[Sequence[Dict[str, object]]] = None,
    event_trace_path: Optional[str | Path] = None,
    verify: bool = True,
) -> Tuple[int, str]:
    """Compose an archive and stamp its manifest: the one composition path.

    Writers close without a manifest -- shard workers write disjoint node
    segments into a shared root, a single-platform replay and
    :func:`pack` write them all -- and the archive's owner calls this
    once: it streams the canonical composition, writes the manifest, and
    returns ``(events, sha256)``.  Running it on a finalized archive is a
    no-op rewrite of identical bytes.

    ``bucket_seconds`` is the width the writers wrote with, which the
    manifest records even when no segment was written.  Without it the
    width is read from the archive: its manifest, else a segment footer.

    Without ``footers`` every segment is re-read and fully verified
    before composing (two passes over the archive).  With ``footers`` --
    the segment footers the writers returned from
    :meth:`ArchiveWriter.close` (name, event count, payload sha256, time
    range per segment), which shard workers ship over the pipe -- the
    merge is *manifest-driven*: one streaming pass composes the digest,
    each footer is checked against its segment when that segment's
    payload ends (unless ``verify=False``), and the composed event count
    must equal the footers' sum.  ``event_trace_path`` additionally
    writes the flat canonical JSONL twin during that same pass, so a
    replay that wants both forms still reads every segment exactly once.

    Segments are inflated in :data:`_BLOCK_BYTES` blocks and each
    bucket's keyed streams go through one ``heapq.merge``
    (:meth:`ArchiveReader.iter_window`); the composed stream is hashed --
    and written to the flat twin -- in 1024-line chunks
    (:func:`repro.sim.shard.sha256_lines`).  Memory holds one block per
    open segment and one digest chunk, not a bucket.
    """
    from repro.sim.shard import sha256_lines

    root = Path(root)
    reader = ArchiveReader(root, bucket_seconds=bucket_seconds)
    if footers is None:
        footers = []
        for info in reader.segments():
            footer = reader.read_footer(info.name, verify=True)
            footer["name"] = info.name
            footer["compressed_bytes"] = (root / info.name).stat().st_size
            footers.append(footer)
        stream_verify = False  # everything above was just verified
    else:
        footers = sorted(footers, key=lambda f: (f["bucket"], f["node"]))
        stream_verify = verify
    handle = None
    if event_trace_path is not None:
        event_trace_path = Path(event_trace_path)
        event_trace_path.parent.mkdir(parents=True, exist_ok=True)
        handle = event_trace_path.open("w", encoding="utf-8")
    try:
        events, sha = sha256_lines(reader.iter_window(verify=stream_verify), handle)
    finally:
        if handle is not None:
            handle.close()
    claimed = sum(f["events"] for f in footers)
    if events != claimed:
        raise ValueError(
            f"archive composed {events} events but the segment manifest "
            f"claims {claimed}"
        )
    write_manifest(
        root, bucket_seconds=reader.bucket_seconds, footers=footers, sha256=sha
    )
    return events, sha
