"""The byte contract of the trace-line encoder.

``repro.trace.encode.encode_line`` must emit exactly the line
``reference_line`` below rebuilds independently with ``json.dumps``:
envelope keys first, sorted scalar payload keys, floats rounded to 9
places, ``request_id`` / ``instance_id`` remapped to dense
first-appearance indexes.  The Hypothesis property drives arbitrary
scalar payloads through both; the golden lines pin the bytes themselves,
without calling ``json``.  ``line_key``, the merge-key reader, must read
back exactly the ``(t, node, seq)`` that ``json.loads`` does from every
line ``encode_line`` writes.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.trace.encode
from repro.sim.bus import EventBus
from repro.sim.shard import sha256_lines
from repro.sim.trace import EventTraceSink
from repro.trace.archive import ArchiveWriter, finalize_archive
from repro.trace.encode import ID_KEYS, SCALARS, encode_line, line_key


def fresh_maps():
    return {key: {} for key in ID_KEYS}


def reference_line(seq, t, node, kind, data, maps):
    """Independent reimplementation of the byte contract: plain
    ``json.dumps`` over the record dict, ids normalized, floats rounded,
    non-scalars dropped."""
    record = {"seq": seq, "t": t, "node": node, "kind": kind}
    for key in sorted(data):
        value = data[key]
        if isinstance(value, SCALARS):
            if isinstance(value, float):
                value = round(value, 9)
            if key in maps:
                value = maps[key].setdefault(value, len(maps[key]) + 1)
            record[key] = value
    return json.dumps(record, sort_keys=False, separators=(",", ":"))


# ------------------------------------------------------------- golden lines


class TestGoldenLines:
    def test_order_rounding_drops_and_ids(self):
        data = {
            "thaw_seconds": 0.1234567891234,
            "instance_id": 9001,
            "handle": object(),
            "function": "fft",
            "warm": True,
            "reason": None,
        }
        line = encode_line(7, 1.5, 2, "thaw", data, fresh_maps())
        assert line == (
            '{"seq":7,"t":1.5,"node":2,"kind":"thaw","function":"fft",'
            '"instance_id":1,"reason":null,"thaw_seconds":0.123456789,'
            '"warm":true}'
        )

    def test_non_finite_floats_and_negative_zero(self):
        data = {"a": math.nan, "b": math.inf, "c": -0.0, "d": -math.inf}
        line = encode_line(0, 0.0, 0, "k", data, fresh_maps())
        assert line == (
            '{"seq":0,"t":0.0,"node":0,"kind":"k",'
            '"a":NaN,"b":Infinity,"c":-0.0,"d":-Infinity}'
        )

    def test_non_ascii_is_escaped(self):
        data = {"function": "café"}
        line = encode_line(1, 2.25, 3, "cold-boot", data, fresh_maps())
        assert line == (
            r'{"seq":1,"t":2.25,"node":3,"kind":"cold-boot","function":"caf\u00e9"}'
        )


# ------------------------------------------------------------ float contract


class TestFormatFloat:
    """A payload float is rounded to 9 places, then spelled as ``json``
    spells it."""

    @pytest.mark.parametrize(
        "value",
        [
            0.0,
            -0.0,
            1.0,
            0.1 + 0.2,
            1e-10,
            5e-324,
            1.7976931348623157e308,
            -123456.789012345,
            float("nan"),
            float("inf"),
            float("-inf"),
        ],
    )
    def test_matches_json_dumps(self, value):
        line = encode_line(0, 0.0, 0, "k", {"v": value}, fresh_maps())
        assert line.endswith(',"v":' + json.dumps(round(value, 9)) + "}")


# ----------------------------------------------------- property: byte parity

_scalar_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=16),
    st.builds(object),  # non-scalar: must be dropped
)

_keys = st.one_of(
    st.sampled_from(ID_KEYS),
    st.text(min_size=1, max_size=10),
)

_payloads = st.dictionaries(_keys, _scalar_values, max_size=5)

_kinds = st.text(min_size=1, max_size=12)

_times = st.floats(allow_nan=True, allow_infinity=True)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=_kinds,
    payload=_payloads,
    seq=st.integers(min_value=0, max_value=10**9),
    t=_times,
    node=st.integers(min_value=0, max_value=64),
)
# A payload key repeating an envelope key overwrites that value in place.
@example(kind="0", payload={"t": 0}, seq=0, t=0.0, node=0)
@example(kind="k", payload={"kind": 1, "node": None}, seq=3, t=1.5, node=2)
def test_encode_line_matches_json_dumps(kind, payload, seq, t, node):
    if not (t != t or t in (math.inf, -math.inf)):
        t = round(t, 9)  # the sink rounds before encoding
    expected = reference_line(seq, t, node, kind, payload, fresh_maps())
    assert encode_line(seq, t, node, kind, payload, fresh_maps()) == expected


# ------------------------------------------------------- merge-key reader


def _same(a, b):
    """Equal in type and value, with NaN equal to NaN."""
    return type(a) is type(b) and (a == b or (a != a and b != b))


def _json_key(line):
    record = json.loads(line)
    return record["t"], record["node"], record["seq"]


def _json_spy():
    """Wraps the ``json`` module inside ``repro.trace.encode``: no
    ``loads`` call means the key was read off the envelope."""
    return mock.patch.object(repro.trace.encode, "json", wraps=json)


#: Payload keys that repeat an envelope key overwrite its value in place.
_envelope_keys = st.sampled_from(("seq", "t", "node", "kind"))

_key_payloads = st.dictionaries(
    st.one_of(_keys, _envelope_keys), _scalar_values, max_size=6
)

_key_times = st.one_of(
    _times, st.integers(min_value=-(2**63), max_value=2**63)
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=_kinds,
    payload=_key_payloads,
    seq=st.integers(min_value=0, max_value=10**9),
    t=_key_times,
    node=st.integers(min_value=0, max_value=64),
)
# The envelope path: a production-shaped record, non-ASCII payload.
@example(kind="thaw", payload={"function": "café", "x": 0.5}, seq=7, t=1.5, node=2)
@example(kind="k", payload={"t": 2.25, "node": 5, "seq": 9}, seq=0, t=1.0, node=0)
# The fallback path: a payload "t" that is not a fraction literal, an
# int time too large for a float, non-finite and exponent-only times,
# non-integer envelope values.
@example(kind="k", payload={"t": "1.5"}, seq=0, t=1.0, node=0)
@example(kind="k", payload={"t": 3}, seq=0, t=1.0, node=0)
@example(kind="k", payload={}, seq=0, t=2**60 + 1, node=0)
@example(kind="k", payload={}, seq=0, t=math.nan, node=0)
@example(kind="k", payload={}, seq=0, t=-math.inf, node=0)
@example(kind="k", payload={}, seq=0, t=1e-05, node=0)
@example(kind="k", payload={"seq": True, "node": None}, seq=0, t=1.5, node=0)
@example(kind="k", payload={"node": 1.5}, seq=0, t=1.5, node=0)
def test_line_key_matches_json_loads(kind, payload, seq, t, node):
    line = encode_line(seq, t, node, kind, payload, fresh_maps())
    with _json_spy() as spy:
        key = line_key(line)
    expected = _json_key(line)
    assert all(map(_same, key, expected)), (line, key, expected)
    assert spy.loads.call_count <= 1


@pytest.mark.parametrize(
    "seq, t, node, payload",
    [
        (0, 0.0, 0, {}),
        (12345, 34.567891234, 3, {"function": "fn-12", "cold": False}),
        (1, 1.5e-07, 7, {"kind": "x,\"t\":9.5"}),
        (2, 1e16 + 2.0, 1, {}),
        (4, 1.0, 1, {"t": 0.25, "node": 4, "seq": 8}),
        (3, -2.5, 2, {"note": '"node":1,"kind":'}),
    ],
)
def test_line_key_reads_envelope_without_json(seq, t, node, payload):
    """Lines whose envelope holds integer ``seq``/``node`` and a
    fraction-literal ``t`` are read without ``json``."""
    line = encode_line(seq, t, node, "k", payload, fresh_maps())
    with _json_spy() as spy:
        key = line_key(line)
    assert spy.loads.call_count == 0
    assert all(map(_same, key, _json_key(line)))


@pytest.mark.parametrize(
    "line",
    [
        '{"seq":0,"t":3,"node":0,"kind":"k"}',
        '{"seq":0,"t":"1.5","node":0,"kind":"k"}',
        '{"seq":0,"t":NaN,"node":0,"kind":"k"}',
        '{"seq":0,"t":Infinity,"node":0,"kind":"k"}',
        '{"seq":0,"t":1e-05,"node":0,"kind":"k"}',
        '{"seq":true,"t":1.5,"node":0,"kind":"k"}',
        '{"seq":0,"t":1.5,"node":null,"kind":"k"}',
        '{"seq":0,"t":1.5,"node":2.0,"kind":"k"}',
        '{"t": 1.5, "node": 0, "seq": 0}',
        '{"node":0,"seq":0,"t":1.5}',
    ],
)
def test_line_key_falls_back_to_json(line):
    with _json_spy() as spy:
        key = line_key(line)
    assert spy.loads.call_count == 1
    assert all(map(_same, key, _json_key(line)))


# --------------------------------------------------------- id normalization


class TestIdNormalization:
    def test_dense_first_appearance_matches_generic(self):
        events = [
            ("a", {"request_id": 900, "instance_id": 17}),
            ("a", {"request_id": 901, "instance_id": 17}),
            ("a", {"request_id": 900, "instance_id": 18}),
            ("b", {"request_id": 902.5, "instance_id": 17}),  # float id
            ("b", {"request_id": 902.5000000001, "instance_id": 17}),
        ]
        maps, ref_maps = fresh_maps(), fresh_maps()
        for seq, (kind, data) in enumerate(events):
            line = encode_line(seq, 1.5, 0, kind, data, maps)
            assert line == reference_line(seq, 1.5, 0, kind, data, ref_maps)
        assert maps == ref_maps
        # floats are rounded before keying the map, so the two nearby
        # request ids above collapsed to one dense index
        assert list(maps["request_id"]) == [900, 901, 902.5]

    def test_indexes_start_at_one(self):
        line = encode_line(0, 0.0, 0, "k", {"request_id": 5}, fresh_maps())
        assert '"request_id":1' in line


# --------------------------------------------------------- scalar subclasses


class TestOddScalars:
    def test_scalar_subclasses_match_generic(self):
        class MyInt(int):
            pass

        class MyFloat(float):
            pass

        class MyStr(str):
            pass

        data = {"a": MyInt(7), "b": MyFloat(0.1234567891234), "c": MyStr("x")}
        line = encode_line(3, 1.25, 2, "sub", data, fresh_maps())
        assert line == reference_line(3, 1.25, 2, "sub", data, fresh_maps())


# ------------------------------------------------------------ sink streams

_KINDS = ("freeze", "thaw", "request-arrival")


def _publish_corpus(bus):
    from repro.sim.events import Event

    for i in range(300):
        t = 0.0012345 * (i + 1)
        if i % 3 == 0:
            bus.publish(Event("freeze", t, i % 4, {"instance_id": 30 + i % 7}))
        elif i % 3 == 1:
            bus.publish(
                Event(
                    "thaw",
                    t,
                    i % 4,
                    {"instance_id": 30 + i % 7, "thaw_seconds": t / 2},
                )
            )
        else:
            bus.publish(
                Event(
                    "request-arrival",
                    t,
                    i % 4,
                    {"request_id": 9000 + i, "function": f"fn{i % 5}"},
                )
            )


class TestSinkParity:
    def test_streamed_file_matches_stored_lines(self, tmp_path):
        """The flat file composed from an archive-backed sink holds the
        lines an in-memory sink on the same bus keeps.  The corpus spans
        four nodes and four buckets, so it composes in canonical
        ``(t, node, seq)`` order, not the sink's publication order."""
        bus = EventBus()
        stored = EventTraceSink(bus, kinds=_KINDS)
        writer = ArchiveWriter(tmp_path / "arc", bucket_seconds=0.1)
        streamed = EventTraceSink(bus, kinds=_KINDS, archive=writer)
        _publish_corpus(bus)
        stored.detach()
        streamed.detach()
        path = tmp_path / "trace.jsonl"
        composed = finalize_archive(
            tmp_path / "arc",
            0.1,
            footers=writer.close()["segments"],
            event_trace_path=path,
        )
        canonical = sorted(stored.lines, key=line_key)
        assert path.read_text(encoding="utf-8") == "".join(
            line + "\n" for line in canonical
        )
        assert composed == sha256_lines(canonical)
        assert streamed.lines == [] and len(streamed) == len(stored) == 300
