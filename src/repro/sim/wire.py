"""Framed pickle messages for the shard coordination pipes.

Every message between the coordinator and a shard worker is one frame:
a ``>I`` length prefix, a one-byte mode (``r`` raw, ``z`` deflated), and
a body that is ``pickle.dumps(message, HIGHEST_PROTOCOL)``.  Every frame
reports its exact byte count -- the coordinator's ``pipe_bytes``
accounting (and the CI pipe-bytes regression gate) read these counters,
not estimates.

Fidelity contract
-----------------
``decode(encode(x))`` must be indistinguishable from ``x`` for the
deterministic replay machinery: tuples stay tuples (payload items are
tuples; a list would change downstream hashing), floats round-trip
bit-exactly (horizons are compared with ``==`` across processes), and
ints of any magnitude survive -- all of which pickle guarantees.  The
inline pool never encodes a message, so any codec infidelity would show
up as an inline-vs-process digest divergence -- regression-tested in
``tests/sim/test_wire.py`` and end-to-end in
``tests/faas/test_sharded_cluster.py``.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from typing import Any, Tuple

__all__ = ["encode", "decode", "send_frame", "recv_frame", "WireError"]

#: Length prefix: 4-byte unsigned big-endian frame size.
_LEN = struct.Struct(">I")

#: Frame mode bytes (first byte after the length prefix).
_MODE_RAW = b"r"
_MODE_DEFLATE = b"z"

#: Bodies below this never compress: the zlib header/dictionary overhead
#: dominates and the frames (marks, acks) are latency-sensitive.
_COMPRESS_MIN = 256


class WireError(ValueError):
    """A frame failed to decode (truncated or corrupt)."""


def encode(obj: Any) -> bytes:
    """Encode one message body (no frame header)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode(data: bytes) -> Any:
    """Decode one message body; the whole buffer must be consumed."""
    buffer = io.BytesIO(data)
    try:
        obj = pickle.Unpickler(buffer).load()
    except Exception as exc:
        # Damaged pickle data fails with many exception types
        # (UnpicklingError, EOFError, ValueError, KeyError, ...): each
        # becomes the one named frame error, its cause chained.
        raise WireError(
            f"undecodable frame body (truncated or corrupt): {exc!r}"
        ) from exc
    trailing = len(data) - buffer.tell()
    if trailing:
        raise WireError(f"{trailing} trailing bytes after message")
    return obj


def send_frame(conn, obj: Any, compress: bool = False) -> int:
    """Encode ``obj``, frame it, send it; returns bytes put on the pipe.

    The explicit ``>I`` length prefix travels inside the OS pipe message
    (on top of ``Connection.send_bytes``'s own header) so a receiver can
    detect truncation independently of the transport.  A one-byte mode
    follows the prefix: ``r`` = raw body, ``z`` = zlib-deflated body.
    With ``compress=True``, bodies over ``_COMPRESS_MIN`` bytes are
    deflated when that actually shrinks them -- the window protocol's
    big frames (window grants, preambles, finish results) are highly
    repetitive; ``zlib.compress`` is deterministic, so byte accounting
    and digests stay exact.  Receivers auto-detect; no negotiation.
    """
    body = encode(obj)
    payload = _MODE_RAW + body
    if compress and len(body) >= _COMPRESS_MIN:
        packed = zlib.compress(body, 6)
        if len(packed) < len(body):
            payload = _MODE_DEFLATE + packed
    frame = _LEN.pack(len(payload)) + payload
    conn.send_bytes(frame)
    return len(frame)


def recv_frame(conn) -> Tuple[Any, int]:
    """Receive one frame; returns ``(message, bytes_received)``.

    Raises :class:`WireError` on a length/prefix mismatch or an
    undecodable body, and lets the transport's ``EOFError`` (peer gone)
    propagate unchanged.
    """
    frame = conn.recv_bytes()
    if len(frame) < 5:
        raise WireError(f"short frame ({len(frame)} bytes)")
    (length,) = _LEN.unpack_from(frame, 0)
    if length != len(frame) - 4:
        raise WireError(
            f"frame length prefix {length} != body {len(frame) - 4}"
        )
    mode = frame[4:5]
    body = frame[5:]
    if mode == _MODE_DEFLATE:
        try:
            body = zlib.decompress(body)
        except zlib.error as exc:
            raise WireError(f"corrupt deflated frame: {exc}") from exc
    elif mode != _MODE_RAW:
        raise WireError(f"unknown frame mode {mode!r}")
    return decode(body), len(frame)
