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
"""

from __future__ import annotations

import json
from typing import Dict, Mapping

__all__ = ["ID_KEYS", "SCALARS", "encode_line"]

#: data keys holding process-global ids that must be normalized to dense
#: first-appearance indexes (the sink owns the actual maps).
ID_KEYS = ("request_id", "instance_id")

#: The only ``Event.data`` value types that are serialized; anything else
#: (live object references a handler might need) is dropped.
SCALARS = (str, int, float, bool, type(None))

#: One shared encoder: the same bytes as the ``json.dumps`` call above,
#: without building an encoder per line.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


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
    dict; the maps grow as new ids appear.
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
    return _ENCODER.encode(record)
