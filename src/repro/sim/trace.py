"""Event-trace sink: export the full simulation timeline as JSONL.

Subscribes to the bus and records every public event as one JSON object
per line (schema in ``docs/EVENT_TRACE.md``).  Two normalizations make
traces *byte-identical* across runs with the same seed:

* only plain scalars from ``Event.data`` are serialized (live object
  references a handler might need are dropped);
* ``request_id`` / ``instance_id`` values are rewritten to dense
  first-appearance indexes, because the underlying counters are global
  to the process and would differ between back-to-back runs.

With ``normalize_seq=True`` the recorded ``seq`` is additionally
rewritten to the sink's own dense record index instead of the bus-wide
publication counter.  A node-filtered sink then emits *node-canonical*
records -- identical whether the node shared its kernel with every
other node (the one-shard serial twin) or with a few peers in a shard
worker, where the bus counter would differ.
The sharded-replay digest gate (:mod:`repro.sim.shard`) is built on
exactly this: per-node canonical traces merge into one stream ordered by
``(t, node, seq)`` whose bytes do not depend on the shard count.

Line *encoding* lives in :mod:`repro.trace.encode`, which documents the
byte format.  The sink *batches* its downstream I/O: lines buffer in the
sink and reach the file and the shared archive writer
(:meth:`~repro.trace.archive.ArchiveWriter.add_many`) in chunks, drained
at the epoch-barrier :meth:`flush` (and at :meth:`detach` / checkpoint
capture), so checkpoint/restore semantics are untouched.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.sim.bus import EventBus, Subscription
from repro.sim.events import TRACE_KINDS, Event

_encode_mod = None


def _encode():
    """The :mod:`repro.trace.encode` module, imported on first use.

    Importing it at module top would cycle: ``repro.trace``'s package
    init pulls in ``replay``, which imports ``repro.sim`` right back.
    Sinks are constructed at run time, long after both packages settled.
    """
    global _encode_mod
    if _encode_mod is None:
        from repro.trace import encode

        _encode_mod = encode
    return _encode_mod


#: Buffered lines per downstream hand-off.  Epoch barriers drain
#: regardless, so this only caps memory between barriers.
_CHUNK_LINES = 1024


class EventTraceSink:
    """Collects bus events; exports (or streams) them as JSONL."""

    def __init__(
        self,
        bus: EventBus,
        kinds: Optional[Iterable[str]] = None,
        node: Optional[int] = None,
        path: Optional[str | Path] = None,
        normalize_seq: bool = False,
        store: bool = True,
        archive: Optional[object] = None,
    ) -> None:
        self.lines: List[str] = []
        #: Records written (== ``len(self.lines)`` unless ``store=False``).
        self.count = 0
        self._normalize_seq = normalize_seq
        encode = _encode()
        self._encode_line = encode.encode_line
        self._id_maps: Dict[str, Dict[object, int]] = {
            key: {} for key in encode.ID_KEYS
        }
        self._store = store
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._path: Optional[Path] = path
            self._file = path.open("w", encoding="utf-8")
        else:
            self._path = None
            self._file = None
        # Segmented-archive backend (docs/TRACE_ARCHIVE.md): a shared,
        # externally owned ArchiveWriter (e.g. one writer for every node
        # sink in a shard worker), which its owner closes.
        self._archive = archive
        #: Line buffer, drained in chunks: bare lines, or
        #: ``(t, node, line)`` tuples when an archive needs the keys.
        self._pending: List[object] = []
        self._pending_plain = self._archive is None
        self._buffered = self._file is not None or self._archive is not None
        self._subscription: Optional[Subscription] = bus.subscribe(
            self._record,
            kinds=tuple(kinds) if kinds is not None else TRACE_KINDS,
            node=node,
        )
        self._bus = bus

    # ------------------------------------------------------------- recording

    def _record(self, event: Event) -> None:
        """Encode one event and queue its line for the chunked hand-off."""
        t = round(event.time, 9)
        line = self._encode_line(
            self.count if self._normalize_seq else event.seq,
            t,
            event.node,
            event.kind,
            event.data,
            self._id_maps,
        )
        self.count += 1
        if self._store:
            self.lines.append(line)
        if self._buffered:
            pending = self._pending
            pending.append(line if self._pending_plain else (t, event.node, line))
            if len(pending) >= _CHUNK_LINES:
                self._drain()

    #: ``perfbench/layers.py`` wraps both ``_record`` and this name; the
    #: alias goes when that file drops its second wrap.
    _record_fast = _record

    def _drain(self) -> None:
        """Hand buffered lines downstream in one call per consumer."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        if self._pending_plain:
            self._file.write("\n".join(pending) + "\n")
            return
        if self._file is not None:
            self._file.write("\n".join(entry[2] for entry in pending) + "\n")
        self._archive.add_many(pending)

    # --------------------------------------------------------------- export

    def detach(self) -> None:
        """Stop recording (and close the streaming file, if any).

        The shared ``archive`` writer is left open for its owner to close.
        """
        if self._subscription is not None:
            self._bus.unsubscribe(self._subscription)
            self._subscription = None
        self._drain()
        if self._file is not None:
            self._file.close()
            self._file = None

    def flush(self) -> None:
        """Push buffered streamed lines to disk (epoch-barrier hook)."""
        self._drain()
        if self._file is not None:
            self._file.flush()
        if self._archive is not None:
            self._archive.flush()

    # ----------------------------------------------------------- checkpoint

    def __getstate__(self) -> dict:
        """Checkpoint state: drop the open stream, record its position.

        Callers capture at epoch barriers, after :meth:`flush`, so the
        on-disk byte count *is* the logical stream position (the defensive
        :meth:`_drain` below keeps that true even for a mid-epoch
        capture).  Restore via :meth:`reopen_outputs` truncates the file
        back to that position and reopens it for append -- any bytes a
        post-checkpoint continuation wrote are discarded, exactly as
        required.
        """
        self._drain()
        state = dict(self.__dict__)
        handle = state.pop("_file", None)
        offset = 0
        if handle is not None:
            handle.flush()
            offset = os.fstat(handle.fileno()).st_size
        state["_file_offset"] = offset
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._file = None

    def reopen_outputs(self) -> None:
        """Re-attach the streaming file after a checkpoint restore."""
        offset = self.__dict__.pop("_file_offset", 0)
        if self._path is None or self._file is not None:
            return
        self._path.parent.mkdir(parents=True, exist_ok=True)
        existing = self._path.stat().st_size if self._path.exists() else 0
        if existing < offset:
            raise ValueError(
                f"stream file {self._path} holds {existing} bytes but the "
                f"checkpoint recorded {offset}; cannot resume the stream"
            )
        with open(self._path, "ab") as grow:
            grow.truncate(offset)
        self._file = self._path.open("a", encoding="utf-8")

    def to_jsonl(self) -> str:
        """The whole trace as one newline-terminated string."""
        if not self.lines:
            return ""
        return "\n".join(self.lines) + "\n"

    def write(self, path: str | Path) -> Path:
        """Write the collected trace to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    def __len__(self) -> int:
        return self.count
