"""Cross-layer conservation laws as pure check functions.

Every function inspects one live object (plus whatever it aggregates
over) and raises :class:`Violation` on the first broken law.  They are
deliberately *redundant* recomputations: where the production code keeps
an incremental counter, the check recounts from the ground truth (the
run lists) and compares -- that is what catches drift.

Invariant names are stable strings (``runlist-sorted``,
``frames-anon``, ...) so the fuzzer can shrink against "the same
invariant still fails" and regression tests can pin one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from repro.faas.instance import FunctionInstance, InstanceState
from repro.mem.layout import PAGE_SIZE
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.mem.runlist import RunList
from repro.mem.vmm import Mapping, PageState, VirtualAddressSpace


class Violation(AssertionError):
    """One broken invariant.

    ``invariant`` is the stable law name; ``subject`` says which object
    broke it; ``detail`` carries the numbers.
    """

    def __init__(self, invariant: str, subject: str, detail: str) -> None:
        self.invariant = invariant
        self.subject = subject
        self.detail = detail
        super().__init__(f"[{invariant}] {subject}: {detail}")


def _violate(invariant: str, subject: str, detail: str) -> None:
    raise Violation(invariant, subject, detail)


# --------------------------------------------------------------- run lists


def check_runlist(
    runs: RunList, subject: str, lo: int = 0, hi: Optional[int] = None
) -> None:
    """Sorted, positive-length, disjoint, coalesced, inside ``[lo, hi)``."""
    starts, ends, values = runs.starts, runs.ends, runs.values
    if not (len(starts) == len(ends) == len(values)):
        _violate(
            "runlist-shape",
            subject,
            f"parallel lists out of sync: {len(starts)}/{len(ends)}/{len(values)}",
        )
    prev_end = None
    prev_value = None
    for i, (s, e, v) in enumerate(zip(starts, ends, values)):
        if e <= s:
            _violate("runlist-length", subject, f"run {i} [{s},{e}) is empty")
        if s < lo or (hi is not None and e > hi):
            _violate(
                "runlist-bounds",
                subject,
                f"run {i} [{s},{e}) escapes window [{lo},{hi})",
            )
        if prev_end is not None:
            if s < prev_end:
                _violate(
                    "runlist-sorted",
                    subject,
                    f"run {i} starts at {s} before previous end {prev_end}",
                )
            if s == prev_end and v == prev_value:
                _violate(
                    "runlist-coalesced",
                    subject,
                    f"runs {i - 1} and {i} touch at {s} with equal value {v!r}",
                )
        prev_end, prev_value = e, v


# ---------------------------------------------------------------- mappings


def check_mapping(mapping: Mapping, subject: Optional[str] = None) -> None:
    """Run-list well-formedness plus residency counters == run sums."""
    subject = subject or f"mapping {mapping.name}@{mapping.start:#x}"
    check_runlist(mapping._runs, subject, 0, mapping.num_pages)
    counted = {PageState.ANON_DIRTY: 0, PageState.FILE_CLEAN: 0, PageState.SWAPPED: 0}
    for s, e, state in mapping._runs.iter_runs(0, mapping.num_pages):
        if state is PageState.NOT_PRESENT:
            _violate(
                "mapping-not-present-run",
                subject,
                f"explicit NOT_PRESENT run [{s},{e}) (gaps must be gaps)",
            )
        counted[state] += e - s
    expected = {
        PageState.ANON_DIRTY: mapping.n_anon,
        PageState.FILE_CLEAN: mapping.n_file,
        PageState.SWAPPED: mapping.n_swapped,
    }
    for state, have in counted.items():
        if have != expected[state]:
            _violate(
                "mapping-counters",
                subject,
                f"{state.name}: counter says {expected[state]}, runs sum to {have}",
            )
    if mapping.n_file and mapping.file is None:
        _violate("mapping-fileless", subject, f"n_file={mapping.n_file} with no file")


def check_space(space: VirtualAddressSpace, subject: Optional[str] = None) -> None:
    """Mapping index consistency, disjointness, and per-mapping checks."""
    subject = subject or f"space {space.name}"
    if space.closed:
        if space._mappings:
            _violate(
                "space-closed", subject, f"{len(space._mappings)} mappings after close"
            )
        return
    if sorted(space._starts) != space._starts:
        _violate("space-starts-sorted", subject, f"starts unsorted: {space._starts}")
    if sorted(space._mappings) != space._starts:
        _violate(
            "space-starts-index",
            subject,
            "mapping dict keys and sorted starts disagree",
        )
    prev_end = None
    for mapping in space.mappings():
        if prev_end is not None and mapping.start < prev_end:
            _violate(
                "space-disjoint",
                subject,
                f"mapping at {mapping.start:#x} overlaps previous end {prev_end:#x}",
            )
        prev_end = mapping.end
        check_mapping(mapping, f"{subject}/{mapping.name}@{mapping.start:#x}")


# ------------------------------------------------------------ the page cache


def check_file(file: MappedFile, subject: Optional[str] = None) -> None:
    """Sharer-set run list well-formedness and exact PSS conservation.

    Recomputes per-mapping solo counts and proportional shares from the
    holder runs (with :class:`~fractions.Fraction`, so equality is exact)
    and compares against the incrementally-maintained aggregates.  The
    capstone law: the shares of all mappings sum to exactly the resident
    page count -- each cached page is accounted once, split among its
    sharers.
    """
    subject = subject or f"file {file.path}"
    check_runlist(file._holders, subject, 0, file.num_pages)
    resident = 0
    solo: Dict[int, int] = {}
    pss: Dict[int, Fraction] = {}
    for s, e, holders in file._holders.iter_runs(0, file.num_pages):
        n = e - s
        if not holders:
            _violate("file-empty-holders", subject, f"run [{s},{e}) has no holders")
        resident += n
        share = Fraction(n, len(holders))
        for holder in holders:
            pss[holder] = pss.get(holder, Fraction(0)) + share
            if len(holders) == 1:
                solo[holder] = solo.get(holder, 0) + n
    if resident != file._resident:
        _violate(
            "file-resident",
            subject,
            f"resident counter {file._resident} != holder runs {resident}",
        )
    for holder, n in solo.items():
        if file._solo.get(holder, 0) != n:
            _violate(
                "file-solo",
                subject,
                f"mapping {holder}: solo counter {file._solo.get(holder, 0)} != {n}",
            )
    for holder, kept in file._solo.items():
        if kept != solo.get(holder, 0):
            _violate(
                "file-solo",
                subject,
                f"mapping {holder}: solo counter {kept} != {solo.get(holder, 0)}",
            )
    for holder, share in file._pss.items():
        if share != pss.get(holder, Fraction(0)):
            _violate(
                "file-pss",
                subject,
                f"mapping {holder}: share {share} != recomputed "
                f"{pss.get(holder, Fraction(0))}",
            )
    total_share = sum(pss.values(), Fraction(0))
    if total_share != resident:
        _violate(
            "file-pss-sum",
            subject,
            f"shares sum to {total_share}, resident pages {resident}",
        )


# ------------------------------------------------------- physical conservation


def check_physical(
    physical: PhysicalMemory,
    spaces: Iterable[VirtualAddressSpace],
    files: Iterable[MappedFile] = (),
    subject: str = "physical",
) -> None:
    """Global frame counts == sums over every space/file on this machine.

    ``spaces`` must be *all* open address spaces allocated against
    ``physical`` and ``files`` all mapped files whose cache frames it
    holds; the caller (the oracle) owns that bookkeeping.
    """
    if physical._anon_frames < 0 or physical._file_frames < 0:
        _violate(
            "frames-negative",
            subject,
            f"anon={physical._anon_frames} file={physical._file_frames}",
        )
    swap = physical.swap
    if swap.pages < 0:
        _violate("swap-negative", subject, f"swap pages {swap.pages}")
    anon = file_pages = swapped = 0
    for space in spaces:
        if space.closed:
            continue
        for mapping in space.mappings():
            anon += mapping.n_anon
            file_pages += mapping.n_file
            swapped += mapping.n_swapped
    if anon != physical._anon_frames:
        _violate(
            "frames-anon",
            subject,
            f"anon frames {physical._anon_frames} != mapped sum {anon}",
        )
    if swapped != swap.pages:
        _violate(
            "swap-pages",
            subject,
            f"swap device holds {swap.pages} pages, mappings say {swapped}",
        )
    resident = 0
    seen = set()
    for file in files:
        if id(file) in seen:
            continue
        seen.add(id(file))
        resident += file.resident_pages()
    if resident != physical._file_frames:
        _violate(
            "frames-file",
            subject,
            f"file frames {physical._file_frames} != cache sum {resident}",
        )
    balance = swap.total_swap_outs - swap.total_swap_ins - swap.total_discards
    if balance != swap.pages:
        _violate(
            "swap-flow",
            subject,
            f"outs {swap.total_swap_outs} - ins {swap.total_swap_ins} "
            f"- discards {swap.total_discards} != pages {swap.pages}",
        )
    if physical.capacity_bytes is not None and physical.used_bytes > physical.capacity_bytes:
        _violate(
            "frames-capacity",
            subject,
            f"used {physical.used_bytes} > capacity {physical.capacity_bytes}",
        )


# ------------------------------------------------------------------- smaps


def check_smaps(space: VirtualAddressSpace, subject: Optional[str] = None) -> None:
    """RSS/PSS/USS consistency of the accounting layer, per mapping.

    For every mapping: the four smaps buckets recompute exactly from the
    run lists, ``USS <= PSS <= RSS`` (PSS compared as an exact Fraction,
    the float only rendered at the edge), and a mapping with no file has
    ``PSS == RSS``.
    """
    from repro.mem.accounting import measure_mapping  # local: avoid cycle

    subject = subject or f"space {space.name}"
    if space.closed:
        return
    for mapping in space.mappings():
        label = f"{subject}/{mapping.name}@{mapping.start:#x}"
        report = measure_mapping(mapping)
        if report.private_dirty != mapping.n_anon * PAGE_SIZE:
            _violate(
                "smaps-private-dirty",
                label,
                f"{report.private_dirty} != {mapping.n_anon * PAGE_SIZE}",
            )
        if report.swap != mapping.n_swapped * PAGE_SIZE:
            _violate(
                "smaps-swap",
                label,
                f"{report.swap} != {mapping.n_swapped * PAGE_SIZE}",
            )
        clean = report.private_clean + report.shared_clean
        if clean != mapping.n_file * PAGE_SIZE:
            _violate(
                "smaps-file-clean",
                label,
                f"clean {clean} != n_file {mapping.n_file * PAGE_SIZE}",
            )
        if report.rss != (mapping.n_anon + mapping.n_file) * PAGE_SIZE:
            _violate(
                "smaps-rss",
                label,
                f"rss {report.rss} != resident "
                f"{(mapping.n_anon + mapping.n_file) * PAGE_SIZE}",
            )
        pss = Fraction(mapping.n_anon)
        if mapping.file is not None:
            pss += mapping.file._pss.get(mapping.id, Fraction(0))
        pss_bytes = pss * PAGE_SIZE
        if abs(report.pss - float(pss_bytes)) > 1e-6 * max(1.0, float(pss_bytes)):
            _violate(
                "smaps-pss",
                label,
                f"pss {report.pss} != exact {float(pss_bytes)}",
            )
        if not report.uss <= pss_bytes <= report.rss:
            _violate(
                "smaps-uss-pss-rss",
                label,
                f"uss {report.uss} <= pss {float(pss_bytes)} <= rss {report.rss} "
                "does not hold",
            )
        if mapping.file is None and pss_bytes != report.rss:
            _violate(
                "smaps-anon-pss",
                label,
                f"anonymous mapping pss {float(pss_bytes)} != rss {report.rss}",
            )


# ----------------------------------------------------------------- runtimes


def check_runtime(runtime, subject: Optional[str] = None) -> None:
    """Heap conservation: ``used <= committed`` and live estimate bounded.

    ``live_estimate`` is the last GC's live bytes; between collections the
    heap may hold more garbage than that but never *less* committed space
    than the estimate -- a reclaim that released live data would surface
    here.
    """
    subject = subject or f"runtime {runtime.name}"
    if not runtime.booted or runtime.space.closed:
        return
    stats = runtime.heap_stats()
    if stats.committed < 0 or stats.used < 0 or stats.live_estimate < 0:
        _violate(
            "heap-negative",
            subject,
            f"committed={stats.committed} used={stats.used} "
            f"live={stats.live_estimate}",
        )
    if stats.used > stats.committed:
        _violate(
            "heap-used-le-committed",
            subject,
            f"used {stats.used} > committed {stats.committed}",
        )
    if stats.live_estimate > stats.committed:
        _violate(
            "heap-live-le-committed",
            subject,
            f"live estimate {stats.live_estimate} > committed {stats.committed}",
        )
    if runtime.total_gc_seconds < 0:
        _violate("gc-seconds", subject, f"negative GC time {runtime.total_gc_seconds}")


# ---------------------------------------------------------------- instances

#: Legal (from, to) state transitions; boot appends the initial IDLE.
_LEGAL_TRANSITIONS = {
    (InstanceState.IDLE, InstanceState.FROZEN),
    (InstanceState.FROZEN, InstanceState.IDLE),
    (InstanceState.IDLE, InstanceState.DEAD),
    (InstanceState.FROZEN, InstanceState.DEAD),
}


def check_instance(instance: FunctionInstance, subject: Optional[str] = None) -> None:
    """State-machine legality and freeze bookkeeping."""
    subject = subject or f"instance {instance.id} ({instance.spec.name})"
    state = instance.state
    if state is InstanceState.FROZEN and instance.frozen_since is None:
        _violate("instance-frozen-since", subject, "FROZEN without frozen_since")
    if state is not InstanceState.FROZEN and instance.frozen_since is not None:
        _violate(
            "instance-frozen-since",
            subject,
            f"{state.value} with frozen_since={instance.frozen_since}",
        )
    if state is InstanceState.DEAD and not instance.runtime.space.closed:
        _violate("instance-dead-space", subject, "DEAD with an open address space")
    if state is not InstanceState.DEAD and instance.runtime.space.closed:
        _violate(
            "instance-closed-space", subject, f"{state.value} with a closed space"
        )
    log = instance.transitions
    for i in range(1, len(log)):
        prev, cur = log[i - 1][1], log[i][1]
        if (prev, cur) not in _LEGAL_TRANSITIONS:
            _violate(
                "instance-transition",
                subject,
                f"illegal transition {prev.value} -> {cur.value} at index {i}",
            )
        if log[i][0] < log[i - 1][0]:
            _violate(
                "instance-transition-time",
                subject,
                f"transition {i} goes back in time ({log[i - 1][0]} -> {log[i][0]})",
            )


# ----------------------------------------------------------------- platform


def check_platform(platform, subject: Optional[str] = None) -> None:
    """Cache/cgroup bookkeeping: capacity respected (or the overcommit
    explicitly counted), concurrency within bounds, no dead instances in
    the pools, CPU charges non-negative."""
    subject = subject or f"platform node {platform.node_id}"
    used = platform.used_bytes()
    if used > platform.capacity_bytes and platform.overcommits == 0:
        _violate(
            "cgroup-capacity",
            subject,
            f"used {used} > capacity {platform.capacity_bytes} "
            "with no overcommit recorded",
        )
    if not 0 <= platform._running <= platform.max_concurrency:
        _violate(
            "platform-concurrency",
            subject,
            f"running {platform._running} outside [0, {platform.max_concurrency}]",
        )
    for name, pool in platform._instances.items():
        for instance in pool:
            if instance.state is InstanceState.DEAD:
                _violate(
                    "platform-dead-pooled",
                    subject,
                    f"dead instance {instance.id} still pooled under {name!r}",
                )
    for category, seconds in platform.cpu.busy.items():
        if seconds < 0:
            _violate(
                "cgroup-cpu",
                subject,
                f"negative busy time {seconds} in category {category!r}",
            )
    # Aggregate parity: recompute the platform's totals from the address
    # spaces directly, bypassing every cache layer (the runtime USS caches
    # and the platform's incremental totals), so drift anywhere in those
    # caches surfaces here.  Skipped for reduced platform stubs
    # (unit tests drive this checker with partial doubles).
    if not hasattr(platform, "all_instances"):
        return
    from repro.mem.accounting import measure

    true_used = 0
    true_frozen = 0
    true_frozen_ids = set()
    for instance in platform.all_instances():
        uss = measure(instance.runtime.space).uss
        true_used += uss
        if instance.state is InstanceState.FROZEN:
            true_frozen += uss
            true_frozen_ids.add(instance.id)
    if true_used != platform.used_bytes():
        _violate(
            "platform-used-aggregate",
            subject,
            f"used_bytes() = {platform.used_bytes()} but ground truth "
            f"is {true_used}",
        )
    if true_frozen != platform.frozen_bytes():
        _violate(
            "platform-frozen-aggregate",
            subject,
            f"frozen_bytes() = {platform.frozen_bytes()} but ground truth "
            f"is {true_frozen}",
        )
    listed_ids = {i.id for i in platform.frozen_instances()}
    if listed_ids != true_frozen_ids:
        _violate(
            "platform-frozen-membership",
            subject,
            f"frozen_instances() ids {sorted(listed_ids)} != "
            f"state-derived {sorted(true_frozen_ids)}",
        )


# ------------------------------------------------------ cross-shard sweeps


def check_shard_conservation(
    reports: Iterable[dict], horizon: Optional[float] = None
) -> None:
    """Cross-shard conservation sweep at an epoch barrier.

    ``reports`` are the per-shard epoch reports of a sharded cluster run
    (:mod:`repro.sim.shard`): plain dicts so the coordinator can check
    workers' claims without holding any live objects.  Each must carry a
    ``conservation`` dict (summed over the shard's physical memories)
    with ``swap_pages``, ``swap_outs``, ``swap_ins``, ``swap_discards``,
    ``frames_used_bytes`` and a ``clock``.  Laws:

    * **shard-swap-flow** -- globally, pages that ever left DRAM either
      came back, were discarded, or still sit in swap:
      ``sum(outs) - sum(ins) - sum(discards) == sum(pages)``.  Each
      worker's physicals satisfy this locally (the per-physical oracle
      law); the global re-check catches aggregation and transport bugs.
    * **shard-frame-nonneg** -- no shard reports negative resident bytes
      or swap counters.
    * **shard-clock-horizon** -- a conservative epoch never runs past
      its horizon: every shard's clock must be ``<= horizon`` (within
      an exact comparison; the kernel dispatches events *at* the
      horizon, never beyond it).
    """
    outs = ins = discards = pages = 0
    for report in reports:
        shard = f"shard {report.get('shard', '?')}"
        conservation = report["conservation"]
        for key in (
            "frames_used_bytes",
            "swap_pages",
            "swap_outs",
            "swap_ins",
            "swap_discards",
        ):
            if conservation[key] < 0:
                _violate(
                    "shard-frame-nonneg",
                    shard,
                    f"{key} = {conservation[key]} is negative",
                )
        outs += conservation["swap_outs"]
        ins += conservation["swap_ins"]
        discards += conservation["swap_discards"]
        pages += conservation["swap_pages"]
        clock = report.get("clock")
        if horizon is not None and clock is not None and clock > horizon:
            _violate(
                "shard-clock-horizon",
                shard,
                f"clock {clock} ran past the epoch horizon {horizon}",
            )
    if outs - ins - discards != pages:
        _violate(
            "shard-swap-flow",
            "cluster",
            f"global swap flow broken: {outs} outs - {ins} ins - "
            f"{discards} discards != {pages} pages resident in swap",
        )


# ------------------------------------------------------------- checkpoints


def check_checkpoint(path) -> dict:
    """Verify a checkpoint file end to end; return its header.

    Delegates to :func:`repro.sim.checkpoint.check_checkpoint` (lazy
    import: the checkpoint module imports :class:`Violation` from here).
    Raises :class:`~repro.sim.checkpoint.CheckpointError` -- a
    :class:`Violation` -- named ``checkpoint-magic``,
    ``checkpoint-schema``, ``checkpoint-truncated`` or
    ``checkpoint-digest`` on the first problem found.
    """
    from repro.sim import checkpoint

    return checkpoint.check_checkpoint(path)


# ---------------------------------------------------------------- archive


def check_archive_writer(writer) -> None:
    """Writer-side half of the digest-composition invariant.

    Swept at every epoch barrier of an archiving sharded run
    (:class:`~repro.faas.cluster.ClusterShardHost.epoch_report`): the
    live :class:`~repro.trace.archive.ArchiveWriter` must agree with its
    own bookkeeping -- open segments non-empty, time ranges inside the
    bucket the filename addresses, closed-plus-open event counts summing
    to the writer's global count.  Cheap (no I/O), so it runs whenever
    the platform oracle is enabled.

    * **archive-writer** -- any :meth:`ArchiveWriter.self_check` problem.
    """
    problems = writer.self_check()
    if problems:
        _violate(
            "archive-writer",
            f"archive {writer.root}",
            "; ".join(problems),
        )


def check_trace_archive(root, against_sha256: Optional[str] = None) -> None:
    """Full archive integrity sweep (reads every segment).

    * **archive-verify** -- a segment footer lies (digest, count, time
      range, addressing), or the composed digest disagrees with the
      manifest or with ``against_sha256`` (the flat-file twin's digest).
    """
    from repro.trace.archive import ArchiveReader

    _, _, problems = ArchiveReader(root).verify(against_sha256=against_sha256)
    if problems:
        _violate("archive-verify", f"archive {root}", "; ".join(problems))


def check_segment_manifest(
    footers: Iterable[dict], composed_events: Optional[int] = None
) -> None:
    """Validate a worker-shipped segment manifest before trusting it.

    Under the out-of-pipe trace protocol shard workers write archive
    segments directly into the shared root and ship only per-segment
    footers (name, event count, payload sha256, time range); the
    coordinator finalizes the archive from these claims.  This sweep
    checks the claims are even self-consistent:

    * **segment-manifest** -- duplicate ``(bucket, node)`` cells (two
      writers claimed the same segment: the partitioning broke),
      non-positive event counts or negative payload sizes, a time range
      outside the bucket the segment name addresses, an inverted time
      range, or -- with ``composed_events`` given -- footers whose event
      counts do not sum to what the composed archive actually streamed.
    """
    from repro.trace.archive import bucket_of, parse_segment_name

    problems = []
    seen = set()
    total = 0
    for footer in footers:
        name = str(footer.get("name", "?"))
        cell = (footer["bucket"], footer["node"])
        if cell in seen:
            problems.append(f"{name}: duplicate segment for (bucket, node) {cell}")
        seen.add(cell)
        if footer["events"] <= 0:
            problems.append(f"{name}: claims {footer['events']} events")
        if footer.get("payload_bytes", 0) < 0:
            problems.append(f"{name}: negative payload_bytes")
        total += footer["events"]
        parsed = parse_segment_name(name)
        if parsed is not None and parsed != cell:
            problems.append(f"{name}: footer addresses {cell}")
        t_min, t_max = footer.get("t_min"), footer.get("t_max")
        if t_min is not None and t_max is not None:
            if t_min > t_max:
                problems.append(f"{name}: t_min {t_min} > t_max {t_max}")
            width = float(footer["bucket_seconds"])
            for bound in (t_min, t_max):
                if bucket_of(bound, width) != footer["bucket"]:
                    problems.append(
                        f"{name}: t={bound} outside bucket {footer['bucket']} "
                        f"(width {width})"
                    )
    if composed_events is not None and total != composed_events:
        problems.append(
            f"footers claim {total} events but the archive composed "
            f"{composed_events}"
        )
    if problems:
        _violate("segment-manifest", "trace archive", "; ".join(problems))

