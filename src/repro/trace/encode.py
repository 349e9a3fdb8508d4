"""The trace-line encoder: one event record -> one JSONL line.

Every digest gate in the repo rests on this byte format.  A line is the
compact JSON object ``json.dumps(record, sort_keys=False,
separators=(",", ":"))`` of the record dict built here:

* the envelope keys come first, in this order: ``seq``, ``t``, ``node``,
  ``kind``;
* then the payload keys of ``Event.data``, sorted.  Only plain scalars
  (:data:`SCALARS`, subclasses included) are kept; anything else is a
  live object reference a handler might need, and is dropped;
* payload floats are rounded to 9 places (the sink rounds ``t``, which
  it also hands to the archive);
* ``request_id`` / ``instance_id`` values (:data:`ID_KEYS`) are remapped
  to dense first-appearance indexes, starting at 1, through the sink's
  id maps -- the underlying counters are process-global, so raw values
  would differ between back-to-back runs;
* a payload key that repeats an envelope key overwrites that value in
  place (plain dict semantics), keeping the envelope position;
* strings are ASCII-escaped (``"café"`` -> ``"caf\\u00e9"``), and the
  non-finite floats are spelled ``NaN`` / ``Infinity`` / ``-Infinity``.

The ``tests/trace/test_encode.py`` golden lines pin these bytes without
calling ``json``.  The determinism lint bans ``json.dumps`` in the
event hot-path modules (``sim/trace.py``, ``sim/bus.py``,
``sim/shard.py``), so this module stays the only serializer.

Because the envelope is always first and in that order, a line's merge
key ``(t, node, seq)`` can be read off its head: :func:`line_key` is
the reader the canonical merge and the archive sort by.
"""

from __future__ import annotations

import json
import re
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Dict, Mapping, Tuple

__all__ = ["ID_KEYS", "SCALARS", "encode_line", "line_key"]

#: data keys holding process-global ids that must be normalized to dense
#: first-appearance indexes (the sink owns the actual maps).
ID_KEYS = ("request_id", "instance_id")

#: The only ``Event.data`` value types that are serialized; anything else
#: (live object references a handler might need) is dropped.
SCALARS = (str, int, float, bool, type(None))

#: The envelope head :func:`line_key` reads: integer ``seq`` and
#: ``node``, and a ``t`` spelled as ``float.__repr__`` spells a finite
#: float with a fraction.  Compiled matching beats ``str.find`` and
#: slicing, and needs no argument about quotes inside strings.
_ENVELOPE = re.compile(
    r'\{"seq":(-?\d+),"t":(-?\d+\.\d+(?:e[-+]\d+)?),"node":(-?\d+),"kind":',
    re.ASCII,
).match

#: The C encoder ``json.JSONEncoder(separators=(",", ":")).encode``
#: builds afresh on every call, built once: same separators, ASCII
#: escaping, ``allow_nan`` and ``default``.  ``markers=None`` drops only
#: the circular-reference check, which a flat record of scalars cannot
#: trip.
_C_ENCODER = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None,
    ":", ",", False, False, True,
)


def encode_line(
    seq: int,
    t: float,
    node: int,
    kind: str,
    data: Mapping[str, object],
    id_maps: Mapping[str, Dict[object, int]],
) -> str:
    """Encode one event record (``t`` already rounded to 9 places).

    ``id_maps`` maps each of :data:`ID_KEYS` to its ``value -> index``
    dict; the maps grow as new ids appear.  The record is serialized by
    one prebuilt C encoder (``json.encoder.c_make_encoder``), the one
    ``JSONEncoder.encode`` would build per call, so the bytes are the
    ``json.dumps`` bytes above; an unserializable value still raises
    ``TypeError``.
    """
    record: Dict[str, object] = {"seq": seq, "t": t, "node": node, "kind": kind}
    for key in sorted(data):
        value = data[key]
        if isinstance(value, SCALARS):
            if isinstance(value, float):
                value = round(value, 9)
            mapping = id_maps.get(key)
            if mapping is not None:
                value = mapping.setdefault(value, len(mapping) + 1)
            record[key] = value
    return "".join(_C_ENCODER(record, 0))


def line_key(line: str) -> Tuple[float, int, int]:
    """The canonical merge key ``(t, node, seq)`` of one encoded line.

    Reads the three values off the envelope ``{"seq":S,"t":T,"node":N,
    "kind":...`` that every line starts with; a payload key repeating an
    envelope key overwrote the value in place, so these are the values
    ``json.loads(line)`` returns, equal in value and type.  A line
    whose head is not that envelope with integer literals ``S``, ``N``
    and a fraction literal ``T`` is parsed with ``json.loads`` instead:
    a payload ``t`` holding an int, a string, a bool or null, an
    exponent-only float, ``NaN`` and ``±Infinity``.
    """
    match = _ENVELOPE(line)
    if match is not None:
        seq, t, node = match.groups()
        return float(t), int(node), int(seq)
    record = json.loads(line)
    return record["t"], record["node"], record["seq"]
