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

Both members are compressed deterministically -- ``mtime=0``, no embedded
filename, pinned :data:`COMPRESSLEVEL` -- so a segment's bytes are a pure
function of its payload.  Because each ``(bucket, node)`` cell is written
by exactly one producer and contains only that node's canonical records,
**archives are byte-identical across runs and shard counts**.

Digest composition
------------------
The pre-existing whole-run witness is ``sha256`` over the canonical
``(t, node, seq)``-ordered JSONL bytes (:func:`repro.sim.shard.sha256_lines`).
Buckets partition time, so that stream is exactly the concatenation, in
bucket order, of the per-bucket ``(t, node, seq)`` merges of the bucket's
per-node segments::

    whole_sha = sha256( ++_{b ascending} merge_{n}(payload[b, n]) )

:func:`ArchiveReader.compose` streams that merge (constant memory),
verifying every footer digest on the way -- so per-segment digests
compose to the existing whole-run SHA-256 and every current digest gate
keeps working unchanged.  The merge keys each line with
:func:`repro.trace.encode.line_key`, which reads ``(t, node, seq)`` off
the line's envelope; only a line it cannot read is parsed with
``json.loads``.
"""

from __future__ import annotations

import gzip
import hashlib
import itertools
import json
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    "open_deterministic_gzip",
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

#: sha256 of zero bytes -- the composed digest of an empty archive.
_EMPTY_SHA = hashlib.sha256(b"").hexdigest()


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


def open_deterministic_gzip(path: str | Path, mode: str = "rb"):
    """The sanctioned way to open archive gzip files.

    Write modes pin the gzip header -- ``mtime=0``, empty filename field,
    :data:`COMPRESSLEVEL` -- so output bytes are a pure function of the
    payload.  (Bare ``gzip.open`` embeds the wall-clock mtime, which the
    determinism lint therefore bans in ``src/``.)
    """
    if "r" in mode:
        return gzip.open(path, mode, encoding="utf-8" if "t" in mode else None)
    if "w" not in mode and "a" not in mode:
        raise ValueError(f"unsupported gzip mode {mode!r}")
    raw = open(path, mode.replace("t", "") + ("b" if "b" not in mode else ""))
    return gzip.GzipFile(
        filename="", mode="wb", fileobj=raw, compresslevel=COMPRESSLEVEL, mtime=0
    )


def gzip_member(data: bytes) -> bytes:
    """Compress ``data`` as one deterministic gzip member."""
    compressor = zlib.compressobj(COMPRESSLEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = compressor.compress(data) + compressor.flush()
    header = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
    crc = zlib.crc32(data).to_bytes(4, "little")
    size = (len(data) & 0xFFFFFFFF).to_bytes(4, "little")
    return header + body + crc + size


# ------------------------------------------------------------------ writer


class _OpenSegment:
    """One segment mid-write: raw file + gzip member + running footer.

    The payload lines written so far are retained (bounded: one bucket's
    worth per node) so a checkpoint (:mod:`repro.sim.checkpoint`) can
    pickle the segment and a restore can *rewrite* it from scratch.
    Because the writer never sync-flushes the compressor, the final
    segment bytes are a pure function of the payload line sequence --
    rewriting the retained lines through a fresh compressor therefore
    reproduces exactly the bytes an uninterrupted run would emit.
    """

    __slots__ = (
        "bucket", "node", "path", "raw", "zip",
        "events", "t_min", "t_max", "sha", "payload_bytes", "lines",
    )

    def __init__(self, path: Path, bucket: int, node: int) -> None:
        self.bucket = bucket
        self.node = node
        self.path = path
        self.raw = path.open("wb")
        self.zip = gzip.GzipFile(
            filename="", mode="wb", fileobj=self.raw,
            compresslevel=COMPRESSLEVEL, mtime=0,
        )
        self.events = 0
        self.t_min: Optional[float] = None
        self.t_max: Optional[float] = None
        self.sha = hashlib.sha256()
        self.payload_bytes = 0
        self.lines: List[Tuple[float, str]] = []

    def write(self, t: float, line: str) -> None:
        data = line.encode("utf-8") + b"\n"
        self.zip.write(data)
        self.sha.update(data)
        self.payload_bytes += len(data)
        self.events += 1
        if self.t_min is None:
            self.t_min = t
        self.t_max = t
        self.lines.append((t, line))

    def write_many(self, entries: Sequence[Tuple[float, str]]) -> None:
        """Append ``(t, line)`` pairs: one compressor write, one hash
        update, and one bookkeeping pass for the whole run.  Callers
        guarantee nondecreasing times within one segment's bucket."""
        data = "\n".join(line for _, line in entries).encode("utf-8") + b"\n"
        self.zip.write(data)
        self.sha.update(data)
        self.payload_bytes += len(data)
        self.events += len(entries)
        if self.t_min is None:
            self.t_min = entries[0][0]
        self.t_max = entries[-1][0]
        self.lines.extend(entries)

    def __getstate__(self) -> Dict[str, object]:
        # Open OS handles and the running hashlib object cannot pickle;
        # the retained lines are sufficient to rebuild all three.
        return {
            "bucket": self.bucket,
            "node": self.node,
            "path": str(self.path),
            "lines": self.lines,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        rebuilt = _OpenSegment(
            Path(state["path"]), state["bucket"], state["node"]
        )
        for t, line in state["lines"]:
            rebuilt.write(t, line)
        for slot in self.__slots__:
            setattr(self, slot, getattr(rebuilt, slot))

    def close(self, bucket_seconds: float) -> Dict[str, object]:
        """Finish the payload member, append the footer member, return
        the footer (with the segment name and compressed size added)."""
        self.zip.close()
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
    node sets (shard workers do exactly this); pass ``manifest=False`` to
    :meth:`close` and let the coordinator run :func:`finalize_archive`.
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
        #: Running digest over the *input* stream order; equals the
        #: composed archive digest iff the input was already canonical
        #: (single node, or ``(t, node, seq)``-merged).
        self._input_sha = hashlib.sha256()
        #: False after a checkpoint restore: the running input digest
        #: cannot be carried across pickling (hashlib objects do not
        #: pickle), so a restored writer may only close with
        #: ``manifest=False`` (the shard-worker path, whose coordinator
        #: composes digests from footers instead).
        self._input_sha_valid = True
        self._closed_flag = False

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["_input_sha"]
        state["_input_sha_valid"] = False
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._input_sha = hashlib.sha256()

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

    def add(self, t: float, node: int, line: str) -> None:
        """Append one record line for ``node`` at simulated time ``t``."""
        if self._closed_flag:
            raise ValueError("archive writer is closed")
        segment = self._segment_for(t, node, bucket_of(t, self.bucket_seconds))
        segment.write(t, line)
        self._input_sha.update(line.encode("utf-8") + b"\n")
        self.events += 1

    def add_many(self, items: Sequence[Tuple[float, int, str]]) -> None:
        """Append a chunk of ``(t, node, line)`` records in one call.

        The batched sibling of :meth:`add` for chunk-draining sinks
        (:class:`repro.sim.trace.EventTraceSink`'s fast path): items are
        grouped into maximal same-``(node, bucket)`` runs, each run hits
        its segment with one compressor write and one SHA-256 update, and
        the input-order digest advances once for the whole chunk.  The
        bytes produced -- segment payloads, footers, and the input-order
        digest -- are identical to ``len(items)`` individual :meth:`add`
        calls; so are the monotonicity and closed-bucket errors (checked
        per run *before* writing it).
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
        self._input_sha.update(
            ("\n".join(line for _, _, line in items) + "\n").encode("utf-8")
        )
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

    def close(self, manifest: bool = True) -> Dict[str, object]:
        """Finalize all open segments; optionally write the manifest.

        Only pass ``manifest=True`` when this writer produced the whole
        archive from a canonical stream -- its input-order digest is then
        the composed archive digest.  Multi-writer archives (shard
        workers) close with ``manifest=False`` and are finalized once by
        :func:`finalize_archive`.
        """
        if manifest and not self._input_sha_valid:
            raise ValueError(
                "input-order digest was invalidated by a checkpoint "
                "restore; close with manifest=False and finalize via "
                "finalize_archive()"
            )
        if not self._closed_flag:
            for node in sorted(self._open):
                self._closed.append(self._open[node].close(self.bucket_seconds))
            self._open.clear()
            self._closed_flag = True
        summary = {
            "events": self.events,
            "sha256": self._input_sha.hexdigest(),
            "segments": sorted(
                self._closed, key=lambda f: (f["bucket"], f["node"])
            ),
        }
        if manifest:
            write_manifest(
                self.root,
                bucket_seconds=self.bucket_seconds,
                footers=summary["segments"],
                sha256=summary["sha256"],
            )
        return summary

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
        if bucket_seconds is not None:
            self.bucket_seconds = float(bucket_seconds)
        elif self.manifest is not None:
            self.bucket_seconds = float(self.manifest["bucket_seconds"])
        else:
            self.bucket_seconds = self._probe_bucket_seconds()
        #: Names of segments opened so far, in open order.
        self.segments_read: List[str] = []

    def _probe_bucket_seconds(self) -> float:
        """Without a manifest, any one footer names the bucket width."""
        for info in self.segments():
            lines = self._read_all_lines(info.name, count_io=False)
            return float(self._split_footer(info.name, lines)[1]["bucket_seconds"])
        return DEFAULT_BUCKET_SECONDS

    # ---------------------------------------------------------- addressing

    def segment_for(self, t: float, node: int) -> str:
        """The filename holding ``(t, node)`` -- pure computation."""
        return segment_name(bucket_of(t, self.bucket_seconds), node)

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

    def _read_all_lines(self, name: str, count_io: bool = True) -> List[str]:
        """Every decompressed line of a segment, its footer last.

        The file is read as one blob, decoded once and split on
        newlines (the encoder never writes a raw carriage return, which
        text mode would also split on).  A segment that cannot be read,
        decompressed or decoded raises ``ValueError`` naming it.
        """
        if count_io:
            self.segments_read.append(name)
        try:
            with gzip.open(self.root / name, "rb") as handle:
                lines = handle.read().decode("utf-8").split("\n")
        except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
            raise ValueError(f"{name}: unreadable ({exc})") from exc
        if lines[-1] == "":
            lines.pop()
        return lines

    @staticmethod
    def _split_footer(
        name: str, lines: List[str]
    ) -> Tuple[List[str], Dict[str, object]]:
        """``(payload_lines, footer)``: the footer is the last line.

        A segment with no lines, or whose last line is not a JSON
        object with this schema, raises ``ValueError`` naming it.
        """
        if not lines:
            raise ValueError(f"{name}: empty segment file")
        try:
            footer = json.loads(lines[-1])
        except ValueError:
            footer = None
        if not isinstance(footer, dict) or footer.get("schema") != ARCHIVE_SCHEMA:
            raise ValueError(f"{name}: missing footer (truncated segment?)")
        return lines[:-1], footer

    def read_segment(
        self, name: str, verify: bool = False
    ) -> Tuple[List[str], Dict[str, object]]:
        """``(payload_lines, footer)`` of one segment.

        With ``verify=True`` the payload is re-hashed and the footer's
        count, digest, time range, and addressing are all checked.  Every
        failure is a ``ValueError`` whose message starts with ``name``.
        """
        payload, footer = self._split_footer(name, self._read_all_lines(name))
        if verify:
            problems = self._verify_segment(name, payload, footer)
            if problems:
                raise ValueError("; ".join(problems))
        return payload, footer

    def _verify_segment(
        self, name: str, payload: List[str], footer: Dict[str, object]
    ) -> List[str]:
        problems = []
        blob = ("\n".join(payload) + "\n").encode("utf-8") if payload else b""
        digest = hashlib.sha256(blob).hexdigest()
        if digest != footer["sha256"]:
            problems.append(
                f"{name}: payload sha256 {digest[:12]} != "
                f"footer {str(footer['sha256'])[:12]}"
            )
        if len(payload) != footer["events"]:
            problems.append(
                f"{name}: {len(payload)} payload lines != footer events "
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
        if recorded_bytes is not None and recorded_bytes != len(blob):
            problems.append(
                f"{name}: {len(blob)} payload bytes != footer "
                f"payload_bytes {recorded_bytes}"
            )
        return problems

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
        from repro.sim.shard import merge_trace_lines

        node_set = None if nodes is None else set(nodes)
        by_bucket: Dict[int, List[SegmentInfo]] = {}
        for info in self.segments():
            if node_set is not None and info.node not in node_set:
                continue
            lo = info.bucket * self.bucket_seconds
            hi = lo + self.bucket_seconds
            if t_start is not None and hi <= t_start:
                continue
            if t_end is not None and lo >= t_end:
                continue
            by_bucket.setdefault(info.bucket, []).append(info)

        def clipped(lines: Iterable[str]) -> Iterator[str]:
            for line in lines:
                t = line_key(line)[0]
                if t_start is not None and t < t_start:
                    continue
                if t_end is not None and t >= t_end:
                    continue
                yield line

        for bucket in sorted(by_bucket):
            infos = by_bucket[bucket]
            boundary = (
                t_start is not None
                and bucket == bucket_of(t_start, self.bucket_seconds)
            ) or (
                t_end is not None
                and bucket * self.bucket_seconds < t_end <= (bucket + 1) * self.bucket_seconds
            )
            streams = [
                self.read_segment(info.name, verify=verify)[0] for info in infos
            ]
            merged = merge_trace_lines(streams)
            yield from clipped(merged) if boundary else merged

    def compose(self, verify: bool = True) -> Tuple[int, str]:
        """``(events, sha256)`` of the whole archive in canonical order.

        This *is* the digest-composition rule: with ``verify=True`` every
        segment footer is checked as it streams past, so a matching
        composed digest certifies both the parts and the whole.
        """
        from repro.sim.shard import sha256_lines

        return sha256_lines(self.iter_window(verify=verify))

    # ------------------------------------------------------------ verifying

    def verify(self, against_sha256: Optional[str] = None) -> List[str]:
        """Full integrity sweep; returns problems (empty == verified).

        Checks every segment's footer (digest, count, time range,
        addressing), then the composed whole-archive digest against the
        manifest and, optionally, an external expectation (the flat-file
        twin's SHA-256).  A segment that fails its own checks is left
        out of the composition, which is hashed in 1024-line chunks.
        """
        from repro.sim.shard import merge_trace_lines, sha256_lines

        problems: List[str] = []

        def composed_lines() -> Iterator[str]:
            by_bucket = itertools.groupby(self.segments(), lambda s: s.bucket)
            for _, infos in by_bucket:
                streams = []
                for info in infos:
                    try:
                        payload, footer = self.read_segment(info.name)
                    except ValueError as exc:  # names the segment
                        problems.append(str(exc))
                        continue
                    found = self._verify_segment(info.name, payload, footer)
                    if found:
                        # A payload that fails its footer stays out of
                        # the merge: its lines may not even parse.
                        problems.extend(found)
                        continue
                    streams.append(payload)
                yield from merge_trace_lines(streams)

        events, composed = sha256_lines(composed_lines())
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
        return problems


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
    writer = ArchiveWriter(root, bucket_seconds=bucket_seconds)
    with open(jsonl_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            # Parsed in full, not keyed off the envelope: the file comes
            # from outside, and a malformed line must fail here.
            record = json.loads(line)
            writer.add(record["t"], record["node"], line)
    summary = writer.close(manifest=True)
    return summary["events"], summary["sha256"]


def finalize_archive(
    root: str | Path,
    footers: Optional[Sequence[Dict[str, object]]] = None,
    event_trace_path: Optional[str | Path] = None,
    verify: bool = True,
) -> Tuple[int, str]:
    """Compose a multi-writer archive and stamp its manifest.

    Shard workers write disjoint node segments into a shared root and
    close their writers without a manifest; the coordinator calls this
    once: it streams the canonical composition, writes the manifest, and
    returns ``(events, sha256)``.  Running it on a writer-finalized
    archive is a no-op rewrite of identical bytes.

    Without ``footers`` every segment is re-read and fully verified
    before composing (two passes over the archive).  With ``footers`` --
    the segment manifests the workers shipped over the pipe
    (:class:`ArchiveWriter.close`'s ``segments``: name, event count,
    payload sha256, time range per segment) -- the merge is
    *manifest-driven*: one streaming pass composes the digest, each
    footer is checked against its segment as it streams past (unless
    ``verify=False``), and the composed event count must equal the
    manifest's sum.  ``event_trace_path`` additionally writes the flat
    canonical JSONL twin during that same pass, so a replay that wants
    both forms still reads every segment exactly once.

    Each segment is read and verified as one blob, the merge keys lines
    by their envelope (:func:`repro.trace.encode.line_key`), and the
    composed stream is hashed -- and written to the flat twin -- in
    1024-line chunks (:func:`repro.sim.shard.sha256_lines`).  Memory
    holds one bucket's segments, as the streaming merge needs.
    """
    from repro.sim.shard import sha256_lines

    root = Path(root)
    if footers is None:
        reader = ArchiveReader(root)
        footers = []
        for info in reader.segments():
            _, footer = reader.read_segment(info.name, verify=True)
            footer["name"] = info.name
            footer["compressed_bytes"] = (root / info.name).stat().st_size
            footers.append(footer)
        stream_verify = False  # everything above was just verified
    else:
        footers = sorted(footers, key=lambda f: (f["bucket"], f["node"]))
        reader = ArchiveReader(
            root,
            bucket_seconds=(
                float(footers[0]["bucket_seconds"]) if footers else None
            ),
        )
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
