"""Deterministic epoch checkpoints: dump/restore full simulation state.

A *checkpoint* captures everything a sharded replay needs to restart
from an epoch barrier and produce byte-identical output: each shard
host's complete object graph (kernel clock, event queue, RNG stream
states, VMM mappings and physical frames, runtime heaps, platform and
cgroup state, keep-alive policies, telemetry/trace stream positions)
plus the coordinator's position (router counters, request-id cursor,
interned-definition sets, phase cursors) and the handful of
module-global id counters the object graph draws from.

File format
-----------
One UTF-8 JSON header line followed by the raw pickle payload::

    {"magic": "repro-checkpoint", "schema": 5, "meta": {...},
     "env": {...}, "payload_sha256": "...", "payload_bytes": N}\n
    <payload_bytes of pickle protocol 4>

The header is self-verifying: :func:`check_checkpoint` confirms the
magic, the schema version, that the payload is exactly
``payload_bytes`` long, and that its SHA-256 matches -- raising
:class:`CheckpointError` (a :class:`~repro.check.invariants.Violation`)
with a stable invariant name on the first problem, so a corrupt or
truncated checkpoint fails loudly *before* any pickle byte is executed.
The ``env`` block records the flags the capture ran under; it is
informational and gates nothing.

A capture's ``pos`` cursor indexes its phase's horizon list, so the
schema changes whenever the epoch grid does, and whenever pickled state
changes shape: schema 2 is the fixed grid's, schema 3 pickles object
graph nodes without reference edges, schema 4 pickles an open archive
segment's payload bytes instead of its lines, schema 5 pickles large
objects as a ``LargeObjectSpace`` and CPython and Go as arena runtimes,
and a capture of another schema fails as ``checkpoint-schema`` rather
than resume at the wrong epoch or misparse a node row.

Invariant names
---------------
``checkpoint-magic``      not a checkpoint file (or a mangled header)
``checkpoint-schema``     schema version this build cannot restore
``checkpoint-truncated``  payload shorter than the header promises
``checkpoint-digest``     payload bytes do not hash to the header digest
``checkpoint-payload``    an intact payload names a class or function this
                          build no longer has (it was captured by an older
                          build, so it cannot be rebuilt here)

Module-global counters
----------------------
``Request``, ``FunctionInstance`` and ``Mapping`` draw ids from
module-global ``itertools.count`` objects.  Those ids are *state*: the
LRU tie-break and the trace id-normalization maps depend on them, so a
restored world must continue the id sequence exactly where the captured
one stood.  :func:`capture_counters` peeks each counter (consuming one
value, then re-arming the global at that same value so the live run is
undisturbed) and :func:`restore_counters` re-arms them in the restoring
process.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.check.invariants import Violation
from repro.digest import sha256

__all__ = [
    "CHECKPOINT_MAGIC",
    "SCHEMA_VERSION",
    "PICKLE_PROTOCOL",
    "CheckpointError",
    "dump",
    "read_header",
    "check_checkpoint",
    "load",
    "capture_counters",
    "restore_counters",
    "snapshot_host",
    "restore_host",
    "snapshot_world",
    "restore_world",
    "environment_fingerprint",
    "arrivals_digest",
]

CHECKPOINT_MAGIC = "repro-checkpoint"

#: Bump on any change to the payload's logical layout or to what its
#: cursors index.  A restore across schema versions is refused outright
#: (``checkpoint-schema``): silently reinterpreting old state would break
#: the byte-identity contract in ways no digest can catch.
SCHEMA_VERSION = 5

#: Pinned pickle protocol: part of the format, not a knob, so the same
#: checkpoint bytes restore on every supported interpreter.
PICKLE_PROTOCOL = 4


class CheckpointError(Violation):
    """A checkpoint that cannot be trusted, named by the broken law."""


def _fail(invariant: str, subject: str, detail: str) -> None:
    raise CheckpointError(invariant, subject, detail)


class _PayloadUnpickler(pickle.Unpickler):
    """Names the global a payload references but this build lacks."""

    def find_class(self, module: str, name: str) -> Any:
        try:
            return super().find_class(module, name)
        except (ImportError, AttributeError) as exc:
            raise pickle.UnpicklingError(
                f"payload references {module}.{name}, which this build "
                f"does not have ({exc})"
            ) from exc


def _unpickle(data: bytes, subject: str) -> Any:
    """Unpickle a payload that already passed the byte-level checks.

    An intact payload can still reference a module, class or function
    this build no longer has; that raises ``checkpoint-payload`` instead
    of a raw import or attribute error from deep inside pickle.
    """
    try:
        return _PayloadUnpickler(io.BytesIO(data)).load()
    except (ImportError, AttributeError, pickle.UnpicklingError) as exc:
        _fail("checkpoint-payload", subject, str(exc))


# ------------------------------------------------------- global id counters

#: ``(module, attribute)`` of every module-global ``itertools.count`` the
#: simulation object graph draws ids from.  Keys are the stable names the
#: payload stores them under.
_COUNTER_SITES: Dict[str, Tuple[str, str]] = {
    "faas.platform._request_ids": ("repro.faas.platform", "_request_ids"),
    "faas.instance._instance_ids": ("repro.faas.instance", "_instance_ids"),
    "mem.vmm._mapping_ids": ("repro.mem.vmm", "_mapping_ids"),
}


def capture_counters() -> Dict[str, int]:
    """Snapshot every global id counter without disturbing the live run.

    ``itertools.count`` cannot be read without consuming, so each
    counter is peeked with ``next()`` and the module global immediately
    re-armed at the peeked value -- the next live draw returns exactly
    what it would have returned without the capture.
    """
    values: Dict[str, int] = {}
    for name, (module_name, attribute) in _COUNTER_SITES.items():
        module = importlib.import_module(module_name)
        value = next(getattr(module, attribute))
        setattr(module, attribute, itertools.count(value))
        values[name] = value
    return values


def restore_counters(values: Dict[str, int]) -> None:
    """Re-arm the global id counters at their captured positions."""
    for name, value in values.items():
        module_name, attribute = _COUNTER_SITES[name]
        module = importlib.import_module(module_name)
        setattr(module, attribute, itertools.count(value))


# --------------------------------------------------------------- file format


def environment_fingerprint() -> Dict[str, object]:
    """The flags a capture ran under, recorded in its header.

    Informational only: no key gates a restore.
    """
    return {"check": os.environ.get("REPRO_CHECK", "")}


def dump(
    path: str | Path, state: Any, meta: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Write ``state`` as a checkpoint file; return the header written.

    The write is atomic (temp file + rename), so a crashed capture never
    leaves a half-written checkpoint that a later resume could trust.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
    header = {
        "magic": CHECKPOINT_MAGIC,
        "schema": SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "env": environment_fingerprint(),
        "payload_sha256": sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
    }
    staging = path.with_name(path.name + ".tmp")
    with staging.open("wb") as handle:
        handle.write(
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        )
        handle.write(b"\n")
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    staging.replace(path)
    return header


def _read_raw(path: Path) -> Tuple[Dict[str, object], bytes]:
    subject = f"checkpoint {path}"
    try:
        raw = path.read_bytes()
    except OSError as exc:
        _fail("checkpoint-magic", subject, f"unreadable: {exc}")
    newline = raw.find(b"\n")
    if newline < 0:
        _fail("checkpoint-magic", subject, "no header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        _fail("checkpoint-magic", subject, f"header is not JSON: {exc}")
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        _fail(
            "checkpoint-magic",
            subject,
            f"magic {header.get('magic') if isinstance(header, dict) else header!r} "
            f"!= {CHECKPOINT_MAGIC!r}",
        )
    return header, raw[newline + 1 :]


def read_header(path: str | Path) -> Dict[str, object]:
    """The header alone (magic verified; payload untouched)."""
    header, _ = _read_raw(Path(path))
    return header


def check_checkpoint(path: str | Path) -> Dict[str, object]:
    """Verify a checkpoint file end to end; return its header.

    The invariant gate every restore passes through first: magic and
    schema recognized, payload exactly as long as promised, payload
    SHA-256 matching the header.  No pickle byte is executed.
    """
    path = Path(path)
    subject = f"checkpoint {path}"
    header, payload = _read_raw(path)
    if header.get("schema") != SCHEMA_VERSION:
        _fail(
            "checkpoint-schema",
            subject,
            f"schema {header.get('schema')!r}; this build restores "
            f"schema {SCHEMA_VERSION} only",
        )
    expected = header.get("payload_bytes")
    if not isinstance(expected, int) or len(payload) < expected:
        _fail(
            "checkpoint-truncated",
            subject,
            f"payload holds {len(payload)} bytes, header promises {expected}",
        )
    payload = payload[:expected]
    digest = sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        _fail(
            "checkpoint-digest",
            subject,
            f"payload sha256 {digest[:12]} != header "
            f"{str(header.get('payload_sha256'))[:12]}",
        )
    return header


def load(path: str | Path) -> Tuple[Dict[str, object], Any]:
    """Verify and unpickle a checkpoint; return ``(header, state)``."""
    path = Path(path)
    header = check_checkpoint(path)
    _, payload = _read_raw(path)
    state = _unpickle(payload[: header["payload_bytes"]], f"checkpoint {path}")
    return header, state


# ------------------------------------------------------------- shard hosts


def snapshot_host(host: Any) -> bytes:
    """Pickle one shard host plus the global counters it draws from.

    The worker-side half of the pool ``snapshot`` command: the blob is
    opaque to the coordinator, which stores one per shard inside the
    session checkpoint payload.
    """
    return pickle.dumps(
        {"host": host, "counters": capture_counters()},
        protocol=PICKLE_PROTOCOL,
    )


def restore_host(blob: bytes, fork: Optional[Dict[str, object]] = None) -> Any:
    """Rebuild a shard host from its snapshot blob.

    Re-arms the restoring process's global id counters, reopens the
    host's streamed outputs (truncating them back to the barrier
    position), and -- for a fork -- applies the changed
    policy/parameters via the host's ``apply_fork`` hook before any
    event runs.
    """
    state = _unpickle(blob, "shard host snapshot")
    restore_counters(state["counters"])
    host = state["host"]
    reopen = getattr(host, "reopen_outputs", None)
    if reopen is not None:
        reopen()
    if fork:
        host.apply_fork(fork)
    return host


def snapshot_world(world: Any) -> bytes:
    """Pickle an arbitrary in-memory world plus the global id counters.

    The lighter sibling of :func:`snapshot_host` for object graphs with
    no streamed outputs to reopen -- e.g. the fuzzer's world+oracle pair,
    snapshotted mid-schedule so the shrinker can restart from the last
    good snapshot instead of replaying the whole prefix.
    """
    return pickle.dumps(
        {"world": world, "counters": capture_counters()},
        protocol=PICKLE_PROTOCOL,
    )


def restore_world(blob: bytes) -> Any:
    """Rebuild a :func:`snapshot_world` blob, re-arming the id counters."""
    state = pickle.loads(blob)
    restore_counters(state["counters"])
    return state["world"]


# -------------------------------------------------------------- arrival log


def arrivals_digest(arrivals: Iterable[Sequence]) -> str:
    """Order-sensitive digest of a submission log.

    A resume regenerates the arrival sequence from the run's parameters
    instead of storing it in the checkpoint; this digest (recorded in
    the checkpoint meta) proves the regenerated log is the one the
    captured run was actually fed.  Items are ``(time, definition)``
    pairs; the time and the definition name enter the hash.
    """
    digest = sha256()
    for time, definition in arrivals:
        name = getattr(definition, "name", str(definition))
        digest.update(json.dumps([round(float(time), 9), name]).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
