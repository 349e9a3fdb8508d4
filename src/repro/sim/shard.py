"""Sharded simulation: partition a cluster across worker processes.

Node shards run in separate worker processes (or, for the in-process
twin, side by side in the caller), each with its own
:class:`~repro.sim.kernel.SimKernel`, synchronized by a coordinator in
*conservative time epochs*.  This module supplies the generic machinery;
:class:`repro.faas.cluster.ShardedClusterSession` is its one user.

Protocol
--------
The coordinator owns a pool of shards, each built from a picklable
*spec* by a picklable *host factory*.  A host exposes these methods
(duck-typed; :class:`repro.faas.cluster.ClusterShardHost` is the
canonical implementation)::

    window_begin(preamble)  # optional: window-scoped setup (interned defs)
    begin_epoch(payload)    # accept one epoch's inputs (routed arrivals)
    advance(until)          # run the local kernel to the epoch horizon
    epoch_end(horizon)      # optional: per-epoch bounded-memory flush
    epoch_report(horizon)   # -> picklable dict (clock, events, conservation)
    mark(name)              # phase transition (reset metrics, start trace)
    finalize()              # -> picklable dict (stats, manifests); shuts down

Every pool call is one barrier: one message per shard, one reply each.
:func:`dispatch` turns a message (``window``, ``mark``, ``snapshot``,
``restore`` or ``finish``) into the host calls and the reply, and both
pools run it, so they differ only in transport: :class:`ShardPool` ships
each message as a framed pickle (:mod:`repro.sim.wire`) to one worker
process per shard, :class:`InlineShardPool` hands it to a host in the
caller's process.

One *window* is one ``window`` call: the coordinator grants every shard
a batch of K epoch horizons (plus each epoch's inputs) in **one
message**, each host runs the whole window -- ``begin_epoch``/
``advance``/``epoch_end`` per epoch -- and replies with **one aggregate
report** taken at the window's final horizon.  The call returns when
every report is in, so the pipe round trip is paid once per window, not
once per epoch.

Batching is safe because all cross-shard interaction (request routing)
flows coordinator -> worker at epoch boundaries and routing is a pure
function of the arrival sequence: every epoch of a window can be routed
before the window is granted.

Epoch horizons
--------------
:func:`epoch_horizons` is the one conservative grid: fixed cells of
``epoch_seconds``, extended by whole cells past the last arrival.  It is
an *index-computed* pure function of ``(start, end, epoch_seconds,
times)``: every caller -- coordinator or worker, any shard count --
derives bit-identical horizons, which keeps the merged timeline
shard-count-invariant.

Determinism
-----------
Shard workers produce *node-canonical* event traces
(:class:`~repro.sim.trace.EventTraceSink` with ``normalize_seq=True``)
and write them as segments of one shared archive root
(:mod:`repro.trace.archive`): per-node records do not depend on which
process or kernel hosted the node.  The coordinator's
:func:`~repro.trace.archive.finalize_archive` merges each bucket's
per-node segments into one stream ordered by ``(t, node, seq)`` -- the
same total order one kernel shared by every node produces -- so the
merged trace's SHA-256 is byte-identical to the serial twin's for any
shard count.

The serial twin of a sharded run is an inline pool with one shard
holding every node.
"""

from __future__ import annotations

import multiprocessing
import traceback
from itertools import islice
from typing import IO, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import procenv
from repro.digest import sha256
from repro.sim import checkpoint, wire

__all__ = [
    "ShardWorkerError",
    "ShardPool",
    "InlineShardPool",
    "make_pool",
    "dispatch",
    "run_window",
    "epoch_horizons",
    "sha256_lines",
]


class ShardWorkerError(RuntimeError):
    """A shard worker raised; carries the worker-side traceback.

    Under the batched protocol a worker can die on any epoch of a
    multi-epoch window grant; ``epoch_index`` (position within the
    window) and ``horizon`` then pinpoint the failing epoch, so the
    error surfaces the epoch that raised, not just the window.
    """

    def __init__(
        self,
        shard: int,
        worker_traceback: str,
        epoch_index: Optional[int] = None,
        horizon: Optional[float] = None,
    ) -> None:
        where = f"shard worker {shard}"
        if epoch_index is not None:
            where += (
                f" (window epoch {epoch_index}, horizon "
                f"{'drain' if horizon is None else horizon})"
            )
        super().__init__(f"{where} failed:\n{worker_traceback.rstrip()}")
        self.shard = shard
        self.worker_traceback = worker_traceback
        self.epoch_index = epoch_index
        self.horizon = horizon


class _EpochFailure(Exception):
    """Internal: wraps a host exception with its window epoch context."""

    def __init__(self, epoch_index: int, horizon: Optional[float]) -> None:
        super().__init__()
        self.epoch_index = epoch_index
        self.horizon = horizon


def run_window(
    host: Any,
    horizons: Sequence[Optional[float]],
    payloads: Sequence[Sequence[Any]],
    preamble: Any = None,
) -> Dict:
    """Drive one host through a window of epochs; return the aggregate.

    The shared engine of both pool flavors: process workers run it
    worker-side, the inline pool runs it in the caller.  One
    ``begin_epoch``/``advance`` (plus the optional ``epoch_end`` flush
    hook) per epoch, then a single ``epoch_report`` at the window's
    final horizon.  Host exceptions are re-raised wrapped in an
    :class:`_EpochFailure` carrying the failing epoch's index and
    horizon, so the coordinator can report the epoch, not the window.
    """
    if len(horizons) != len(payloads):
        raise ValueError("one payload batch per window epoch required")
    if not horizons:
        raise ValueError("a window needs at least one epoch")
    if preamble is not None:
        window_begin = getattr(host, "window_begin", None)
        if window_begin is not None:
            window_begin(preamble)
    epoch_end = getattr(host, "epoch_end", None)
    for index, (horizon, payload) in enumerate(zip(horizons, payloads)):
        try:
            if payload:
                host.begin_epoch(payload)
            host.advance(horizon)
            if epoch_end is not None:
                epoch_end(horizon)
        except BaseException as exc:
            raise _EpochFailure(index, horizon) from exc
    return host.epoch_report(horizons[-1])


def dispatch(host: Any, message: Tuple) -> Tuple[Any, Any]:
    """Apply one coordinator command to ``host``; return ``(host, value)``.

    The one command handler of both pools: a process worker runs it on
    each decoded frame, :class:`InlineShardPool` on each message it
    would have sent.  ``restore`` replaces the host, so the host to use
    next comes back with the value -- the window's aggregate report, a
    snapshot's checkpoint blob, ``finish``'s final results, or ``None``.
    A host failure inside a window raises :class:`_EpochFailure` (see
    :func:`run_window`).
    """
    command = message[0]
    if command == "window":
        _, horizons, payloads, preamble = message
        return host, run_window(host, horizons, payloads, preamble)
    if command == "mark":
        host.mark(message[1])
        return host, None
    if command == "snapshot":
        return host, checkpoint.snapshot_host(host)
    if command == "restore":
        _, blob, fork = message
        return checkpoint.restore_host(blob, fork=fork), None
    if command == "finish":
        return host, host.finalize()
    raise ValueError(f"unknown shard command {command!r}")


def _worker_main(conn, host_factory, spec, env: Dict[str, str]) -> None:
    """Worker process entry: build the host, then serve commands.

    Every command is answered with exactly one framed reply --
    ``("ok", value)`` with the :func:`dispatch` value, or ``("error",
    info)`` -- so the coordinator can run a strict send/recv lockstep
    per worker.  ``info`` is a dict carrying the worker traceback plus,
    for a mid-window failure, the failing epoch's index and horizon.
    The bulky replies (reports, snapshots, results) are deflated when
    that shrinks them.
    """
    def send_error(tb: str, epoch_index=None, horizon=None) -> None:
        wire.send_frame(
            conn,
            (
                "error",
                {"traceback": tb, "epoch_index": epoch_index, "horizon": horizon},
            ),
        )

    try:
        procenv.apply(env)
        host = host_factory(spec)
    except BaseException:
        send_error(traceback.format_exc())
        conn.close()
        return
    try:
        while True:
            try:
                message, _ = wire.recv_frame(conn)
            except EOFError:
                return
            try:
                host, value = dispatch(host, message)
                wire.send_frame(conn, ("ok", value), compress=True)
            except _EpochFailure as failure:
                send_error(
                    traceback.format_exc(),
                    epoch_index=failure.epoch_index,
                    horizon=failure.horizon,
                )
                return
            except BaseException:
                send_error(traceback.format_exc())
                return
            if message[0] == "finish":
                return
    finally:
        conn.close()


class _Pool:
    """The shard protocol over some transport, one barrier per call.

    Subclasses supply ``__len__`` (the shard count) and
    ``_exchange(messages)``, which delivers one message per shard and
    returns every reply's value.  The commands, their argument checks
    and the ``round_trips`` count live here.
    """

    #: Barrier exchanges so far, and exact framed bytes each way (zero
    #: for a transport that never encodes).
    round_trips = 0
    pipe_bytes_sent = 0
    pipe_bytes_received = 0

    @property
    def pipe_bytes(self) -> int:
        """Total framed bytes moved through the pipes, both directions."""
        return self.pipe_bytes_sent + self.pipe_bytes_received

    def _barrier(self, messages: Sequence[Tuple]) -> List[Any]:
        self.round_trips += 1
        return self._exchange(messages)

    def window(
        self,
        horizons: Sequence[Optional[float]],
        payloads: Sequence[Sequence[Sequence[Any]]],
        preambles: Optional[Sequence[Any]] = None,
    ) -> List[Dict]:
        """Run a window of epochs on every shard; one barrier, all reports.

        ``horizons`` is the window's epoch horizon list (shared by every
        shard; a ``None`` final horizon drains to quiescence -- only safe
        once no further inputs will be sent for times the drain could
        overrun).  ``payloads[k][j]`` is shard *k*'s input batch for
        window epoch *j*; ``preambles[k]`` (optional) is delivered to
        shard *k*'s ``window_begin`` before the first epoch -- the
        definition-interning channel.
        """
        if len(payloads) != len(self):
            raise ValueError("one payload batch per shard required")
        if preambles is not None and len(preambles) != len(self):
            raise ValueError("one preamble per shard required")
        horizons = list(horizons)
        messages = []
        for shard, shard_payloads in enumerate(payloads):
            if len(shard_payloads) != len(horizons):
                raise ValueError("one payload batch per window epoch required")
            preamble = preambles[shard] if preambles is not None else None
            messages.append(
                ("window", horizons, [list(p) for p in shard_payloads], preamble)
            )
        return self._barrier(messages)

    def mark(self, name: str) -> None:
        """Broadcast a phase-transition mark; barrier."""
        self._barrier([("mark", name)] * len(self))

    def snapshot(self) -> List[bytes]:
        """Collect one checkpoint blob per shard; barrier.

        Each host is pickled (plus the process-global id counters) via
        :func:`repro.sim.checkpoint.snapshot_host` -- a real pickle even
        inline; the coordinator stores the opaque blobs inside the
        session checkpoint.
        """
        return self._barrier([("snapshot",)] * len(self))

    def restore(
        self, blobs: Sequence[bytes], fork: Optional[Dict] = None
    ) -> None:
        """Replace every host with its checkpointed twin; barrier.

        ``fork`` (optional) is broadcast with each blob and applied via
        the host's ``apply_fork`` hook -- the fork-and-explore entry
        point.
        """
        if len(blobs) != len(self):
            raise ValueError("one checkpoint blob per shard required")
        self._barrier([("restore", blob, fork) for blob in blobs])

    def finish(self) -> List[Dict]:
        """Collect final results and shut every shard down."""
        results = self._barrier([("finish",)] * len(self))
        self.close()
        return results

    def close(self) -> None:
        """Release the transport (idempotent)."""


class ShardPool(_Pool):
    """Coordinator handle over one worker process per shard.

    Tracks protocol-cost counters as it goes: ``round_trips`` (barrier
    exchanges -- one per window/mark/snapshot/restore/finish, however
    many shards), ``pipe_bytes_sent`` and ``pipe_bytes_received`` (exact
    framed bytes, both directions, summed over shards).  These are what
    the bench suite's ``pipe_bytes`` metric and the CI pipe-bytes
    regression gate measure.  Workers start with the coordinator's
    :func:`repro.procenv.snapshot` applied.
    """

    def __init__(self, host_factory: Callable[[Any], Any], specs: Sequence[Any]) -> None:
        if not specs:
            raise ValueError("need at least one shard spec")
        env = procenv.snapshot()
        self._connections = []
        self._processes = []
        try:
            for spec in specs:
                parent_conn, child_conn = multiprocessing.Pipe()
                process = multiprocessing.Process(
                    target=_worker_main,
                    args=(child_conn, host_factory, spec, env),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._connections.append(parent_conn)
                self._processes.append(process)
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return len(self._connections)

    def _exchange(self, messages: Sequence[Tuple]) -> List[Any]:
        for shard, message in enumerate(messages):
            self._send(shard, message)
        return [self._receive(shard) for shard in range(len(messages))]

    def _send(self, shard: int, message: Tuple) -> None:
        try:
            self.pipe_bytes_sent += wire.send_frame(
                self._connections[shard], message, compress=True
            )
        except (BrokenPipeError, OSError):
            # The worker already died (e.g. its host factory raised and
            # it closed the pipe).  Its queued error report -- if it got
            # one out -- still sits in the pipe buffer; the paired
            # _receive surfaces it as a ShardWorkerError.
            pass

    def _receive(self, shard: int) -> Any:
        try:
            message, nbytes = wire.recv_frame(self._connections[shard])
        except EOFError as exc:
            raise ShardWorkerError(shard, "worker exited without replying") from exc
        self.pipe_bytes_received += nbytes
        kind, value = message
        if kind == "error":
            raise ShardWorkerError(
                shard,
                value["traceback"],
                epoch_index=value.get("epoch_index"),
                horizon=value.get("horizon"),
            )
        return value

    def close(self) -> None:
        """Tear down workers unconditionally (error-path cleanup)."""
        for connection in self._connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5)
        self._connections = []
        self._processes = []


class InlineShardPool(_Pool):
    """The same protocol, with hosts living in this process.

    Used for the serial twin (one shard, every node) and for debugging a
    sharded run without process boundaries.  Deliberately does *not*
    touch the environment: inline hosts share the caller's live flags.
    Messages go straight to :func:`dispatch` and are never encoded, so
    the pipe-byte counters stay zero -- which is exactly the honest
    accounting (nothing crossed a pipe).  A host failure inside a window
    surfaces as the :class:`ShardWorkerError` a worker would send; any
    other host exception propagates as raised.
    """

    def __init__(self, host_factory: Callable[[Any], Any], specs: Sequence[Any]) -> None:
        if not specs:
            raise ValueError("need at least one shard spec")
        self._hosts = [host_factory(spec) for spec in specs]

    def __len__(self) -> int:
        return len(self._hosts)

    def _exchange(self, messages: Sequence[Tuple]) -> List[Any]:
        replies = []
        for shard, message in enumerate(messages):
            try:
                host, value = dispatch(self._hosts[shard], message)
            except _EpochFailure as failure:
                raise ShardWorkerError(
                    shard,
                    traceback.format_exc(),
                    epoch_index=failure.epoch_index,
                    horizon=failure.horizon,
                ) from failure.__cause__
            self._hosts[shard] = host
            replies.append(value)
        return replies


def make_pool(
    host_factory: Callable[[Any], Any], specs: Sequence[Any], processes: bool
) -> _Pool:
    """Build a process pool, or the inline twin running the same protocol."""
    if processes:
        return ShardPool(host_factory, specs)
    return InlineShardPool(host_factory, specs)


# ------------------------------------------------------------------ epochs


def epoch_horizons(
    start: float, end: float, epoch_seconds: float, times: Iterable[float] = ()
) -> List[float]:
    """The fixed conservative epoch grid covering ``(start, end]`` and ``times``.

    Horizons land at ``start + k * epoch_seconds``.  The grid runs to the
    first grid point ``>= end``, then on by whole cells until its last
    horizon is strictly greater than every time in ``times`` -- so an
    arrival exactly at the phase end still lands inside an epoch.
    Computed by *index* (not by accumulating floats), and ``times``
    enters only through its maximum, so every caller derives
    bit-identical horizons whatever the input order.
    """
    if epoch_seconds <= 0:
        raise ValueError("epoch_seconds must be positive")
    if end <= start:
        horizons = [start + epoch_seconds]
    else:
        count = int((end - start) / epoch_seconds)
        horizons = [start + (k + 1) * epoch_seconds for k in range(count)]
        if not horizons or horizons[-1] < end:
            horizons.append(start + (count + 1) * epoch_seconds)
    last = max(times, default=start)
    while horizons[-1] <= last:
        horizons.append(start + (len(horizons) + 1) * epoch_seconds)
    return horizons


# ------------------------------------------------------------------ digest


#: Lines per SHA-256 / write hand-off in :func:`sha256_lines`.
_DIGEST_CHUNK = 1024


def sha256_lines(
    lines: Iterable[str], out: Optional[IO[str]] = None
) -> Tuple[int, str]:
    """Count and digest a line stream (newline-terminated, like the files).

    Hashes in :data:`_DIGEST_CHUNK`-line batches -- one ``update`` per
    chunk instead of two per line -- producing the identical digest.
    ``out``, a text file, receives the same newline-terminated bytes
    chunk by chunk.
    """
    digest = sha256()
    count = 0
    lines = iter(lines)
    while True:
        chunk = list(islice(lines, _DIGEST_CHUNK))
        if not chunk:
            return count, digest.hexdigest()
        count += len(chunk)
        text = "\n".join(chunk) + "\n"
        digest.update(text.encode("utf-8"))
        if out is not None:
            out.write(text)
