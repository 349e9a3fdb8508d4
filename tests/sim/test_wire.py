"""Fidelity and framing tests for the shard wire format.

The shard pool's digest-identity guarantee leans on ``decode(encode(x))``
being indistinguishable from ``x`` for everything the window protocol
ships: horizons (floats compared with ``==`` across processes), payload
tuples (tuple-ness affects downstream hashing), interning preambles
(dicts of definitions), and report dicts.  These tests pin the contract
directly; ``tests/faas/test_sharded_cluster.py`` covers it end to end.
"""

import math
import struct

import pytest

from repro.sim.wire import WireError, decode, encode, recv_frame, send_frame


def roundtrip(obj):
    return decode(encode(obj))


class TestScalars:
    def test_singletons(self):
        assert roundtrip(None) is None
        assert roundtrip(True) is True
        assert roundtrip(False) is False

    def test_ints(self):
        for value in (0, 1, -1, 2**62, -(2**63), 2**63 - 1):
            out = roundtrip(value)
            assert out == value and type(out) is int

    def test_big_ints_take_the_pickle_escape(self):
        for value in (2**63, -(2**63) - 1, 10**40, -(10**40)):
            assert roundtrip(value) == value

    def test_floats_bit_exact(self):
        values = [0.0, -0.0, 1.5, -1e308, 5e-324, math.inf, -math.inf]
        for value in values:
            out = roundtrip(value)
            assert struct.pack(">d", out) == struct.pack(">d", value)

    def test_nan_preserves_bits(self):
        out = roundtrip(math.nan)
        assert struct.pack(">d", out) == struct.pack(">d", math.nan)

    def test_bool_is_not_int_on_the_wire(self):
        # True/False must come back as bools, not 1/0: payloads use them
        # as flags and ``type() is`` dispatch would misroute ints.
        assert roundtrip([True, 1, False, 0]) == [True, 1, False, 0]
        out = roundtrip((True, 0))
        assert type(out[0]) is bool and type(out[1]) is int

    def test_strings(self):
        for value in ("", "plain", "café", "☃" * 100):
            assert roundtrip(value) == value

    def test_bytes(self):
        for value in (b"", b"\x00\xff" * 10):
            assert roundtrip(value) == value


class TestContainers:
    def test_tuple_stays_tuple_and_list_stays_list(self):
        out = roundtrip((1, [2, (3,)], []))
        assert out == (1, [2, (3,)], [])
        assert type(out) is tuple
        assert type(out[1]) is list
        assert type(out[1][1]) is tuple
        assert type(out[2]) is list

    def test_empty_containers(self):
        assert roundtrip(()) == ()
        assert roundtrip([]) == []
        assert roundtrip({}) == {}

    def test_dict_roundtrip_preserves_insertion_order(self):
        src = {"b": 1, "a": 2, "c": (3.0, None)}
        out = roundtrip(src)
        assert out == src
        assert list(out) == list(src)

    def test_window_message_shape(self):
        # The hot message of the batched protocol.
        msg = (
            "window",
            [5.0, 10.0, None],
            [[(0, 1.25, "fn", 7)], [], [(1, 9.5, "gn", 8)]],
            {"fn": b"body"},
        )
        assert roundtrip(msg) == msg

    def test_arbitrary_objects_via_pickle_escape(self):
        assert roundtrip(complex(1, 2)) == complex(1, 2)
        assert roundtrip(frozenset({1, 2})) == frozenset({1, 2})
        assert roundtrip({1.5: {"nested": [b"x", ()]}}) == {
            1.5: {"nested": [b"x", ()]}
        }


class TestErrors:
    def test_truncated_scalar(self):
        with pytest.raises(WireError):
            decode(encode(1.5)[:-1])

    def test_truncated_string_body(self):
        with pytest.raises(WireError, match="truncated"):
            decode(encode("hello")[:-2])

    def test_truncated_container(self):
        with pytest.raises(WireError):
            decode(encode((1, 2, 3))[:-9])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireError, match="trailing"):
            decode(encode(None) + b"x")

    def test_undecodable_body(self):
        with pytest.raises(WireError, match="undecodable"):
            decode(b"Z")
        conn = _FakeConn()
        payload = b"rjunk"  # raw mode, a body that is no pickle
        conn.queue.append(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(WireError, match="undecodable"):
            recv_frame(conn)

    def test_empty_buffer(self):
        with pytest.raises(WireError):
            decode(b"")


class _FakeConn:
    """Duck-typed Connection: a byte-message queue."""

    def __init__(self):
        self.queue = []

    def send_bytes(self, data):
        self.queue.append(bytes(data))

    def recv_bytes(self):
        return self.queue.pop(0)


class TestFraming:
    def test_send_recv_roundtrip_and_byte_counts(self):
        conn = _FakeConn()
        msg = ("report", {"events": 12, "clock": 5.0})
        sent = send_frame(conn, msg)
        assert sent == len(conn.queue[0])
        out, received = recv_frame(conn)
        assert out == msg
        assert received == sent

    def test_frame_length_prefix_mismatch(self):
        conn = _FakeConn()
        send_frame(conn, "hello")
        conn.queue[0] = conn.queue[0][:-1]  # drop a body byte
        with pytest.raises(WireError, match="length prefix"):
            recv_frame(conn)

    def test_short_frame(self):
        conn = _FakeConn()
        conn.queue.append(b"\x00\x00")
        with pytest.raises(WireError, match="short frame"):
            recv_frame(conn)

    def test_eof_propagates(self):
        class _Closed:
            def recv_bytes(self):
                raise EOFError

        with pytest.raises(EOFError):
            recv_frame(_Closed())

    def test_unknown_frame_mode(self):
        conn = _FakeConn()
        send_frame(conn, "hello")
        frame = conn.queue[0]
        conn.queue[0] = frame[:4] + b"X" + frame[5:]
        with pytest.raises(WireError, match="unknown frame mode"):
            recv_frame(conn)


class TestCompression:
    def test_large_repetitive_frame_deflates(self):
        conn_raw, conn_z = _FakeConn(), _FakeConn()
        msg = [("node", 1.5, "fn-name", k) for k in range(500)]
        raw = send_frame(conn_raw, msg, compress=False)
        packed = send_frame(conn_z, msg, compress=True)
        assert packed < raw / 3
        assert recv_frame(conn_z)[0] == recv_frame(conn_raw)[0] == msg

    def test_small_frames_stay_raw(self):
        conn = _FakeConn()
        sent = send_frame(conn, ("ok", None), compress=True)
        assert conn.queue[0][4:5] == b"r"
        out, received = recv_frame(conn)
        assert out == ("ok", None) and received == sent

    def test_incompressible_body_stays_raw(self):
        import hashlib

        conn = _FakeConn()
        # High-entropy bytes: deflate cannot shrink them, so the frame
        # must fall back to raw rather than ship a bigger body.
        blob = b"".join(
            hashlib.sha256(bytes([i])).digest() for i in range(40)
        )
        send_frame(conn, blob, compress=True)
        assert conn.queue[0][4:5] == b"r"
        assert recv_frame(conn)[0] == blob

    def test_corrupt_deflated_frame(self):
        import struct as _struct

        conn = _FakeConn()
        body = b"z" + b"not-deflate-data"
        conn.queue.append(_struct.pack(">I", len(body)) + body)
        with pytest.raises(WireError, match="corrupt deflated frame"):
            recv_frame(conn)

    def test_compression_is_deterministic(self):
        a, b = _FakeConn(), _FakeConn()
        msg = {"warm": list(range(200)), "names": ["fn"] * 100}
        send_frame(a, msg, compress=True)
        send_frame(b, msg, compress=True)
        assert a.queue[0] == b.queue[0]
