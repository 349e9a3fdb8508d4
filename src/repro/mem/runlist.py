"""Sorted run-length interval lists: the primitive behind the page tables.

A :class:`RunList` stores disjoint, sorted, coalesced runs
``(start, end, value)`` over an integer axis -- page indices, here.  Gaps
between runs mean "absent" (a ``NOT_PRESENT`` page, an uncached file
page).  Two users share it:

* :class:`repro.mem.vmm.Mapping` keeps per-page residency states as runs
  (values are :class:`~repro.mem.vmm.PageState` members), and
* :class:`repro.mem.physical.MappedFile` keeps the page cache's sharer
  sets as runs (values are frozensets of mapping ids).

All mutation happens through :meth:`splice`, which replaces an arbitrary
window ``[lo, hi)`` with new runs in a single list-splice.  Every bulk
operation is therefore O(runs touched + log runs) instead of O(pages):
faulting a 200 MiB heap in is one three-element splice, not 51,200 dict
stores, which is what makes the Figure 9 Azure replays sweep-rate bound
by arithmetic rather than page walks.  The shapes a replay issues almost
exclusively -- one run into a gap (a fresh fault-in), clearing a gap,
clearing inside one run (a discard) -- are edited in place: two
bisections and at most one list insert or delete per list.  Every other
shape takes the general splice.

Values are compared with ``==`` for coalescing (``PageState`` members
compare by identity; frozensets by content).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Sequence, Tuple

#: One run: (start, end, value), covering [start, end).
Run = Tuple[int, int, Any]


class RunList:
    """Disjoint, sorted, coalesced ``(start, end, value)`` runs."""

    __slots__ = ("starts", "ends", "values")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.values: List[Any] = []

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        """Number of runs (not covered units)."""
        return len(self.starts)

    def __bool__(self) -> bool:
        return bool(self.starts)

    def index_at(self, pos: int) -> int:
        """Index of the run containing ``pos``, or -1."""
        i = bisect_right(self.starts, pos) - 1
        if i >= 0 and pos < self.ends[i]:
            return i
        return -1

    def value_at(self, pos: int, default: Any = None) -> Any:
        """Value covering ``pos``, or ``default`` for a gap."""
        i = self.index_at(pos)
        return self.values[i] if i >= 0 else default

    def covered(self, lo: int = 0, hi: Optional[int] = None) -> int:
        """Units inside ``[lo, hi)`` covered by any run."""
        return sum(e - s for s, e, _ in self.iter_runs(lo, hi))

    def iter_runs(self, lo: int = 0, hi: Optional[int] = None) -> Iterator[Run]:
        """Present runs clipped to ``[lo, hi)``, in order."""
        starts, ends, values = self.starts, self.ends, self.values
        if hi is None:
            hi = ends[-1] if ends else 0
        i = bisect_right(ends, lo)  # first run ending after lo
        while i < len(starts) and starts[i] < hi:
            yield max(starts[i], lo), min(ends[i], hi), values[i]
            i += 1

    def iter_segments(self, lo: int, hi: int, absent: Any = None) -> Iterator[Run]:
        """Runs *and* gaps covering ``[lo, hi)`` completely, in order.

        Gaps are yielded with value ``absent``.
        """
        pos = lo
        for s, e, v in self.iter_runs(lo, hi):
            if s > pos:
                yield pos, s, absent
            yield s, e, v
            pos = e
        if pos < hi:
            yield pos, hi, absent

    # ----------------------------------------------------------- mutation

    def splice(self, lo: int, hi: int, pieces: Sequence[Run]) -> None:
        """Replace the window ``[lo, hi)`` with ``pieces``.

        ``pieces`` must be sorted, disjoint, and inside the window; absent
        stretches are simply omitted.  Partial run overlaps at the window
        edges are preserved, and equal-valued neighbours (within the new
        pieces and across the window edges) are coalesced, so the
        "sorted + disjoint + maximally merged" invariant holds by
        construction after every mutation.
        """
        starts, ends, values = self.starts, self.ends, self.values
        i = bisect_right(ends, lo)  # first run ending after lo
        j = bisect_left(starts, hi, lo=i)  # first run starting at/after hi
        if not pieces:
            if i == j:
                return  # clearing a gap changes nothing
            if j == i + 1:
                # Clearing inside one run: trim its head or tail, split
                # it around the window, or drop it.  The cleared stretch
                # leaves a gap, so nothing coalesces.
                s, e = starts[i], ends[i]
                if s < lo:
                    ends[i] = lo
                    if e > hi:
                        starts.insert(j, hi)
                        ends.insert(j, e)
                        values.insert(j, values[i])
                elif e > hi:
                    starts[i] = hi
                else:
                    del starts[i], ends[i], values[i]
                return
        elif i == j and len(pieces) == 1:
            s, e, v = pieces[0]
            if s < e:
                # One run into a gap: grow or join the neighbour runs it
                # meets with an equal value, else insert it.
                left = i > 0 and ends[i - 1] == s and values[i - 1] == v
                if i < len(starts) and starts[i] == e and values[i] == v:
                    if left:
                        ends[i - 1] = ends[i]
                        del starts[i], ends[i], values[i]
                    else:
                        starts[i] = s
                elif left:
                    ends[i - 1] = e
                else:
                    starts.insert(i, s)
                    ends.insert(i, e)
                    values.insert(i, v)
                return
        merged: List[List[Any]] = []
        if i < j and starts[i] < lo:
            merged.append([starts[i], lo, values[i]])
        for s, e, v in pieces:
            if s >= e:
                continue
            if merged and merged[-1][1] == s and merged[-1][2] == v:
                merged[-1][1] = e
            else:
                merged.append([s, e, v])
        if i < j and ends[j - 1] > hi:
            if merged and merged[-1][1] == hi and merged[-1][2] == values[j - 1]:
                merged[-1][1] = ends[j - 1]
            else:
                merged.append([hi, ends[j - 1], values[j - 1]])
        # Coalesce with the untouched neighbours on each side.
        if merged and i > 0 and ends[i - 1] == merged[0][0] and values[i - 1] == merged[0][2]:
            merged[0][0] = starts[i - 1]
            i -= 1
        if merged and j < len(starts) and starts[j] == merged[-1][1] and values[j] == merged[-1][2]:
            merged[-1][1] = ends[j]
            j += 1
        starts[i:j] = [m[0] for m in merged]
        ends[i:j] = [m[1] for m in merged]
        values[i:j] = [m[2] for m in merged]

    def clear(self, lo: int, hi: int) -> None:
        """Drop every run (and run part) inside ``[lo, hi)``."""
        self.splice(lo, hi, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        runs = ", ".join(
            f"[{s},{e})={v!r}"
            for s, e, v in zip(self.starts, self.ends, self.values)
        )
        return f"RunList({runs})"
