"""Sharded simulation: partition a cluster across worker processes.

A serial cluster run drives every node on one shared
:class:`~repro.sim.kernel.SimKernel`.  That is convenient but caps
replay throughput at one core and keeps every node's state in one
process.  This module supplies the generic machinery for the sharded
alternative: node shards run in separate worker processes, each with its
own kernel, synchronized by a coordinator in *conservative time epochs*.

Protocol
--------
The coordinator owns a :class:`ShardPool` of workers, each built from a
picklable *spec* by a picklable *host factory*.  A host exposes these
methods (duck-typed; :class:`repro.faas.cluster.ClusterShardHost` is the
canonical implementation)::

    window_begin(preamble)  # optional: window-scoped setup (interned defs)
    begin_epoch(payload)    # accept one epoch's inputs (routed arrivals)
    advance(until)          # run the local kernel to the epoch horizon
    epoch_end(horizon)      # optional: per-epoch bounded-memory flush
    epoch_report(horizon)   # -> picklable dict (clock, conservation, loads)
    mark(name)              # phase transition (reset metrics, start trace)
    finalize()              # -> picklable dict (stats, manifests); shuts down

One *window* is one :meth:`ShardPool.window` call: the coordinator
grants every shard a batch of K epoch horizons (plus each epoch's
inputs) in **one framed message** (:mod:`repro.sim.wire`), workers run
the whole window locally -- ``begin_epoch``/``advance``/``epoch_end``
per epoch -- and reply with **one aggregate report** taken at the
window's final horizon.  The call returns when every report is in: a
barrier, but one per window instead of one per epoch, which is what
collapses the per-epoch pipe round-trip constant that made PR 5's
process parallelism protocol-bound.

Batching is safe because all cross-shard interaction (request routing)
flows coordinator -> worker at epoch boundaries and the static
schedulers' routing is a pure function of the arrival sequence: every
epoch of a window can be routed before the window is granted.  Only
routing that feeds on previous-epoch load digests (``least-loaded-live``)
needs fresh reports each epoch; such sessions simply cap the window at
one epoch, recovering the PR 5 cadence exactly where -- and only where
-- conservative-horizon safety demands it.

Epoch horizons
--------------
:func:`epoch_horizons` is the fixed conservative grid.
:func:`adaptive_horizons` replaces it with horizons computed from
submission-log arrival density (:func:`arrival_density`): dense cells
are subdivided, runs of idle cells collapse into one long epoch -- so a
bursty, heavy-tailed log ("Serverless in the Wild") no longer pays
thousands of empty synchronization barriers during its idle stretches.
Both are *index-computed* pure functions of ``(times, start, end,
epoch_seconds)``: every caller -- coordinator or worker, any shard count
-- derives bit-identical horizons, which keeps the merged timeline
shard-count-invariant.

Determinism
-----------
Shard workers produce *node-canonical* event traces
(:class:`~repro.sim.trace.EventTraceSink` with ``normalize_seq=True``):
per-node records do not depend on which process or kernel hosted the
node.  :func:`merge_trace_files` merges the per-node JSONL streams into
one stream ordered by ``(t, node, seq)`` -- the same total order a
shared serial kernel produces -- so the merged trace's SHA-256 is
byte-identical to the serial run's for any shard count.

:class:`InlineShardPool` runs the identical window protocol with
in-process hosts (no forking, no codec); the serial twin of a sharded
run is an inline pool with one shard holding every node.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import multiprocessing
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ShardWorkerError",
    "ShardPool",
    "InlineShardPool",
    "make_pool",
    "run_window",
    "epoch_horizons",
    "adaptive_horizons",
    "arrival_density",
    "merge_trace_lines",
    "merge_trace_files",
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


def _worker_main(conn, host_factory, spec, env: Dict[str, str]) -> None:
    """Worker process entry: build the host, then serve window commands.

    Every command is answered with exactly one framed reply --
    ``("report", dict)``, ``("ok", None)``, ``("result", dict)`` or
    ``("error", info)`` -- so the coordinator can run a strict
    send/recv lockstep per worker.  ``info`` is a dict carrying the
    worker traceback plus, for a mid-window failure, the failing
    epoch's index and horizon.  The bulky replies (reports, snapshots,
    results) are deflated when that shrinks them.
    """
    from repro import procenv  # local import: keep module picklable footprint small
    from repro.sim import wire

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
            command = message[0]
            try:
                if command == "window":
                    _, horizons, payloads, preamble = message
                    report = run_window(host, horizons, payloads, preamble)
                    wire.send_frame(conn, ("report", report), compress=True)
                elif command == "mark":
                    host.mark(message[1])
                    wire.send_frame(conn, ("ok", None))
                elif command == "snapshot":
                    from repro.sim import checkpoint

                    wire.send_frame(
                        conn,
                        ("report", checkpoint.snapshot_host(host)),
                        compress=True,
                    )
                elif command == "restore":
                    from repro.sim import checkpoint

                    _, blob, fork = message
                    host = checkpoint.restore_host(blob, fork=fork)
                    wire.send_frame(conn, ("ok", None))
                elif command == "finish":
                    wire.send_frame(conn, ("result", host.finalize()), compress=True)
                    return
                else:
                    send_error(f"unknown shard command {command!r}")
                    return
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
    finally:
        conn.close()


class ShardPool:
    """Coordinator handle over one worker process per shard.

    Tracks protocol-cost counters as it goes: ``round_trips`` (barrier
    exchanges -- one per window/mark/finish, however many shards),
    ``pipe_bytes_sent`` and ``pipe_bytes_received`` (exact framed bytes,
    both directions, summed over shards).  These are what the bench
    suite's ``pipe_bytes`` metric and the CI pipe-bytes regression gate
    measure.
    """

    def __init__(
        self,
        host_factory: Callable[[Any], Any],
        specs: Sequence[Any],
        env: Optional[Dict[str, str]] = None,
        start_method: Optional[str] = None,
    ) -> None:
        from repro import procenv

        if not specs:
            raise ValueError("need at least one shard spec")
        if env is None:
            env = procenv.snapshot()
        context = multiprocessing.get_context(start_method)
        self._connections = []
        self._processes = []
        self.round_trips = 0
        self.pipe_bytes_sent = 0
        self.pipe_bytes_received = 0
        try:
            for spec in specs:
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
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

    @property
    def pipe_bytes(self) -> int:
        """Total framed bytes moved through the pipes, both directions."""
        return self.pipe_bytes_sent + self.pipe_bytes_received

    def _send(self, shard: int, message: Tuple) -> None:
        from repro.sim import wire

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
        from repro.sim import wire

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
        if len(payloads) != len(self._connections):
            raise ValueError("one payload batch per shard required")
        if preambles is not None and len(preambles) != len(self._connections):
            raise ValueError("one preamble per shard required")
        horizons = list(horizons)
        for shard, shard_payloads in enumerate(payloads):
            if len(shard_payloads) != len(horizons):
                raise ValueError("one payload batch per window epoch required")
            preamble = preambles[shard] if preambles is not None else None
            self._send(
                shard,
                ("window", horizons, [list(p) for p in shard_payloads], preamble),
            )
        self.round_trips += 1
        return [self._receive(shard) for shard in range(len(self._connections))]

    def mark(self, name: str) -> None:
        """Broadcast a phase-transition mark; barrier."""
        for shard in range(len(self._connections)):
            self._send(shard, ("mark", name))
        self.round_trips += 1
        for shard in range(len(self._connections)):
            self._receive(shard)

    def snapshot(self) -> List[bytes]:
        """Collect one checkpoint blob per shard; barrier.

        Each worker pickles its live host (plus the process-global id
        counters) via :func:`repro.sim.checkpoint.snapshot_host` and
        ships the opaque blob back; the coordinator stores the blobs
        inside the session checkpoint.
        """
        for shard in range(len(self._connections)):
            self._send(shard, ("snapshot",))
        self.round_trips += 1
        return [self._receive(shard) for shard in range(len(self._connections))]

    def restore(
        self, blobs: Sequence[bytes], fork: Optional[Dict] = None
    ) -> None:
        """Replace every worker's host with its checkpointed twin; barrier.

        ``fork`` (optional) is broadcast with each blob and applied by
        the worker via the host's ``apply_fork`` hook -- the
        fork-and-explore entry point.
        """
        if len(blobs) != len(self._connections):
            raise ValueError("one checkpoint blob per shard required")
        for shard, blob in enumerate(blobs):
            self._send(shard, ("restore", blob, fork))
        self.round_trips += 1
        for shard in range(len(self._connections)):
            self._receive(shard)

    def finish(self) -> List[Dict]:
        """Collect final results and shut every worker down."""
        for shard in range(len(self._connections)):
            self._send(shard, ("finish",))
        self.round_trips += 1
        results = [self._receive(shard) for shard in range(len(self._connections))]
        self.close()
        return results

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


class InlineShardPool:
    """The same window protocol, with hosts living in this process.

    Used for the serial twin (one shard, every node) and for debugging a
    sharded run without process boundaries.  Deliberately does *not*
    touch the environment: inline hosts share the caller's live flags.
    No codec runs, so the cost counters stay zero -- which is exactly
    the honest accounting (nothing crossed a pipe).
    """

    def __init__(self, host_factory: Callable[[Any], Any], specs: Sequence[Any]) -> None:
        if not specs:
            raise ValueError("need at least one shard spec")
        self._hosts = [host_factory(spec) for spec in specs]
        self.round_trips = 0
        self.pipe_bytes_sent = 0
        self.pipe_bytes_received = 0

    def __len__(self) -> int:
        return len(self._hosts)

    @property
    def pipe_bytes(self) -> int:
        return 0

    def window(
        self,
        horizons: Sequence[Optional[float]],
        payloads: Sequence[Sequence[Sequence[Any]]],
        preambles: Optional[Sequence[Any]] = None,
    ) -> List[Dict]:
        if len(payloads) != len(self._hosts):
            raise ValueError("one payload batch per shard required")
        if preambles is not None and len(preambles) != len(self._hosts):
            raise ValueError("one preamble per shard required")
        reports = []
        for shard, (host, shard_payloads) in enumerate(zip(self._hosts, payloads)):
            preamble = preambles[shard] if preambles is not None else None
            try:
                reports.append(run_window(host, horizons, shard_payloads, preamble))
            except _EpochFailure as failure:
                raise ShardWorkerError(
                    shard,
                    traceback.format_exc(),
                    epoch_index=failure.epoch_index,
                    horizon=failure.horizon,
                ) from failure.__cause__
        self.round_trips += 1
        return reports

    def mark(self, name: str) -> None:
        for host in self._hosts:
            host.mark(name)

    def snapshot(self) -> List[bytes]:
        # A *real* pickle round-trip even inline: the blob is what a
        # process worker would ship, so inline-pool tests exercise the
        # identical serialization path.
        from repro.sim import checkpoint

        self.round_trips += 1
        return [checkpoint.snapshot_host(host) for host in self._hosts]

    def restore(
        self, blobs: Sequence[bytes], fork: Optional[Dict] = None
    ) -> None:
        from repro.sim import checkpoint

        if len(blobs) != len(self._hosts):
            raise ValueError("one checkpoint blob per shard required")
        self._hosts = [checkpoint.restore_host(blob, fork=fork) for blob in blobs]
        self.round_trips += 1

    def finish(self) -> List[Dict]:
        return [host.finalize() for host in self._hosts]

    def close(self) -> None:
        pass


def make_pool(
    host_factory: Callable[[Any], Any],
    specs: Sequence[Any],
    processes: bool,
    start_method: Optional[str] = None,
):
    """Build a process pool, or the inline twin running the same protocol."""
    if processes:
        return ShardPool(host_factory, specs, start_method=start_method)
    return InlineShardPool(host_factory, specs)


# ------------------------------------------------------------------ epochs


def epoch_horizons(start: float, end: float, epoch_seconds: float) -> List[float]:
    """The fixed conservative epoch grid covering ``(start, end]``.

    Horizons land at ``start + k * epoch_seconds`` and the last one is
    the first grid point ``>= end``, so every input time is covered by
    exactly one epoch.  Computed by *index* (not by accumulating floats)
    so every caller derives bit-identical horizons.
    """
    if epoch_seconds <= 0:
        raise ValueError("epoch_seconds must be positive")
    if end <= start:
        return [start + epoch_seconds]
    count = int((end - start) / epoch_seconds)
    horizons = [start + (k + 1) * epoch_seconds for k in range(count)]
    if not horizons or horizons[-1] < end:
        horizons.append(start + (count + 1) * epoch_seconds)
    return horizons


def arrival_density(
    times: Sequence[float], start: float, end: float, cell_seconds: float
) -> List[int]:
    """Arrival counts per fixed grid cell -- the shared density index.

    Cell *k* covers ``[start + k*c, start + (k+1)*c)``; the cell count
    matches :func:`epoch_horizons`'s grid for the same window.  A pure,
    order-insensitive function of the full submission log, so the
    coordinator and every worker -- at any shard count -- derive the
    identical index (property-tested in
    ``tests/sim/test_adaptive_horizons.py``).  Both the adaptive epoch
    horizons and the archive's adaptive bucket sizing
    (:func:`repro.trace.archive.adaptive_bucket_seconds`) feed on it.
    """
    if cell_seconds <= 0:
        raise ValueError("cell_seconds must be positive")
    cells = len(epoch_horizons(start, end, cell_seconds))
    counts = [0] * cells
    span = cells * cell_seconds
    for t in times:
        if start <= t < start + span:
            counts[int((t - start) / cell_seconds)] += 1
    return counts


def adaptive_horizons(
    times: Sequence[float],
    start: float,
    end: float,
    epoch_seconds: float,
    dense_events: int = 64,
    max_merge: int = 16,
    max_split: int = 4,
) -> List[float]:
    """Density-adaptive conservative horizons covering ``(start, end]``.

    Replaces the fixed grid with horizons shaped by the submission log's
    arrival density (:func:`arrival_density` over the base grid):

    * a run of **empty** cells collapses into one long epoch (bounded by
      ``max_merge`` cells), so idle tails stop paying per-cell barriers;
    * a **dense** cell (``>= dense_events`` arrivals) is subdivided into
      up to ``max_split`` equal sub-epochs, index-computed, keeping
      ``least-loaded-live`` load digests fresh through bursts;
    * every other cell keeps its grid horizon.

    Guarantees: horizons are strictly increasing, the last horizon is
    ``>= end`` **and** strictly greater than every arrival time (an
    arrival exactly at the phase end still lands inside an epoch), and
    the result is a pure function of the inputs -- bit-identical on the
    coordinator and every worker at any shard count, because each
    horizon is computed by grid *index*, never by accumulating floats.
    """
    if epoch_seconds <= 0:
        raise ValueError("epoch_seconds must be positive")
    if dense_events < 1 or max_merge < 1 or max_split < 1:
        raise ValueError("dense_events, max_merge and max_split must be >= 1")
    counts = arrival_density(times, start, end, epoch_seconds)
    horizons: List[float] = []
    k = 0
    while k < len(counts):
        if counts[k] == 0:
            # Collapse this idle run (bounded) into one long epoch.
            j = k
            while (
                j + 1 < len(counts)
                and counts[j + 1] == 0
                and (j + 1 - k) < max_merge
            ):
                j += 1
            horizons.append(start + (j + 1) * epoch_seconds)
            k = j + 1
        elif counts[k] >= dense_events:
            splits = min(max_split, counts[k] // dense_events + 1)
            for i in range(1, splits + 1):
                horizons.append(
                    start + k * epoch_seconds + (i * epoch_seconds) / splits
                )
            k += 1
        else:
            horizons.append(start + (k + 1) * epoch_seconds)
            k += 1
    # Cover stragglers at or past the last horizon (an arrival time equal
    # to the phase end would otherwise never satisfy ``t < horizon``).
    last = max(times, default=start)
    cells = len(counts)
    while horizons[-1] <= last:
        cells += 1
        horizons.append(start + cells * epoch_seconds)
    return horizons


# ------------------------------------------------------------------- merge


def _keyed_lines(lines: Iterable[str]) -> Iterator[Tuple[Tuple[float, int, int], str]]:
    for line in lines:
        record = json.loads(line)
        yield (record["t"], record["node"], record["seq"]), line


def merge_trace_lines(sources: Sequence[Iterable[str]]) -> Iterator[str]:
    """Merge per-shard JSONL trace streams into one canonical stream.

    Each source must already be sorted by ``(t, node, seq)`` -- true of
    any single-node sink, and of any previously merged stream.  The
    merged order is the global event order a shared serial kernel
    produces: time-major, with same-time events from different nodes
    ordered by node id and ``seq`` breaking ties within a node.  Keys
    are unique (``seq`` is dense per node), so the merge is a total
    order independent of how records were partitioned across sources.
    """
    for _, line in heapq.merge(
        *[_keyed_lines(source) for source in sources], key=lambda pair: pair[0]
    ):
        yield line


def _iter_file(path: Path) -> Iterator[str]:
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line:
                yield line


#: Lines per SHA-256 / write / archive hand-off in the merge hot loops.
_DIGEST_CHUNK = 1024


def sha256_lines(lines: Iterable[str]) -> Tuple[int, str]:
    """Count and digest a line stream (newline-terminated, like the files).

    Hashes in :data:`_DIGEST_CHUNK`-line batches -- one ``update`` per
    chunk instead of two per line -- producing the identical digest.
    """
    digest = hashlib.sha256()
    count = 0
    chunk: List[str] = []
    for line in lines:
        chunk.append(line)
        count += 1
        if len(chunk) >= _DIGEST_CHUNK:
            digest.update(("\n".join(chunk) + "\n").encode("utf-8"))
            chunk.clear()
    if chunk:
        digest.update(("\n".join(chunk) + "\n").encode("utf-8"))
    return count, digest.hexdigest()


def merge_trace_files(
    paths: Sequence[str | Path],
    out_path: Optional[str | Path] = None,
    archive_dir: Optional[str | Path] = None,
    archive_bucket_seconds: Optional[float] = None,
) -> Tuple[int, str]:
    """Merge per-node trace files; return ``(events, sha256)``.

    **Constant-memory guarantee**: every input is consumed line by line
    through a heap merge over one buffered reader per file, so peak
    memory is bounded by ``O(len(paths))`` read buffers plus one record
    -- independent of file sizes (regression-tested in
    ``tests/sim/test_merge_memory.py``).  With ``out_path`` the merged
    JSONL is also written; with ``archive_dir`` the merged stream is
    additionally rolled straight into segmented-archive form
    (:mod:`repro.trace.archive`), still in one streaming pass, and the
    archive manifest carries the same composed digest this function
    returns.
    """
    merged = heapq.merge(
        *[_keyed_lines(_iter_file(Path(path))) for path in paths],
        key=lambda pair: pair[0],
    )
    writer = None
    if archive_dir is not None:
        from repro.trace.archive import DEFAULT_BUCKET_SECONDS, ArchiveWriter

        writer = ArchiveWriter(
            archive_dir,
            bucket_seconds=(
                DEFAULT_BUCKET_SECONDS
                if archive_bucket_seconds is None
                else archive_bucket_seconds
            ),
        )
    handle = None
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        handle = out_path.open("w", encoding="utf-8")
    digest = hashlib.sha256()
    count = 0
    # Chunked downstream hand-off: the merged stream reaches the digest,
    # the flat file, and the archive (ArchiveWriter.add_many) in
    # _DIGEST_CHUNK-line batches -- identical bytes, a fraction of the
    # per-line call overhead.
    chunk: List[Tuple[float, int, str]] = []

    def drain() -> None:
        payload = "\n".join(entry[2] for entry in chunk) + "\n"
        if handle is not None:
            handle.write(payload)
        if writer is not None:
            writer.add_many(chunk)
        digest.update(payload.encode("utf-8"))
        chunk.clear()

    try:
        for (t, node, _), line in merged:
            chunk.append((t, node, line))
            count += 1
            if len(chunk) >= _DIGEST_CHUNK:
                drain()
        if chunk:
            drain()
    finally:
        if handle is not None:
            handle.close()
    if writer is not None:
        # The merged stream is canonical, so the writer's input-order
        # digest is the composed digest: safe to stamp the manifest.
        writer.close(manifest=True)
    return count, digest.hexdigest()
