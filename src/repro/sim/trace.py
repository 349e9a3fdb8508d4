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
byte format.  A sink either keeps its lines in memory (:attr:`lines`) or
hands them to an :class:`~repro.trace.archive.ArchiveWriter`, the one
path by which a trace reaches disk: lines buffer in the sink and reach
:meth:`~repro.trace.archive.ArchiveWriter.add_many` in chunks, drained at
the epoch-barrier :meth:`flush` and at :meth:`detach`.  Every flat JSONL
file is composed from the archive (:func:`repro.trace.archive.finalize_archive`).
"""

from __future__ import annotations

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
    """Collects bus events as JSONL lines, in memory or into an archive."""

    def __init__(
        self,
        bus: EventBus,
        kinds: Optional[Iterable[str]] = None,
        node: Optional[int] = None,
        normalize_seq: bool = False,
        archive: Optional[object] = None,
    ) -> None:
        #: The recorded lines; empty when the sink writes to ``archive``.
        self.lines: List[str] = []
        #: Records written.
        self.count = 0
        self._normalize_seq = normalize_seq
        encode = _encode()
        self._encode_line = encode.encode_line
        self._id_maps: Dict[str, Dict[object, int]] = {
            key: {} for key in encode.ID_KEYS
        }
        # Segmented-archive backend (docs/TRACE_ARCHIVE.md): a shared,
        # externally owned ArchiveWriter (e.g. one writer for every node
        # sink in a shard worker), which its owner closes.
        self._archive = archive
        #: ``(t, node, line)`` records not yet handed to the archive.
        self._pending: List[tuple] = []
        self._subscription: Optional[Subscription] = bus.subscribe(
            self._record,
            kinds=tuple(kinds) if kinds is not None else TRACE_KINDS,
            node=node,
        )
        self._bus = bus

    # ------------------------------------------------------------- recording

    def _record(self, event: Event) -> None:
        """Encode one event; keep its line, or queue it for the archive."""
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
        if self._archive is None:
            self.lines.append(line)
            return
        pending = self._pending
        pending.append((t, event.node, line))
        if len(pending) >= _CHUNK_LINES:
            self._drain()

    #: ``perfbench/layers.py`` wraps both ``_record`` and this name; the
    #: alias goes when that file drops its second wrap.
    _record_fast = _record

    def _drain(self) -> None:
        """Hand the queued lines to the archive in one call."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self._archive.add_many(pending)

    # --------------------------------------------------------------- export

    def detach(self) -> None:
        """Stop recording and hand the archive every queued line.

        The shared ``archive`` writer is left open for its owner to close.
        """
        if self._subscription is not None:
            self._bus.unsubscribe(self._subscription)
            self._subscription = None
        self._drain()

    def flush(self) -> None:
        """Push queued lines through the archive to disk (epoch-barrier hook)."""
        if self._archive is not None:
            self._drain()
            self._archive.flush()

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
