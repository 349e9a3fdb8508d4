"""Randomized property tests: RunList vs a naive per-page dict model.

Same differential pattern as ``test_vmm_differential.py`` (the
``mem/reference.py`` oracle), one layer down: drive :class:`RunList`
through random splice/clear sequences and mirror every operation in a
plain ``{position: value}`` dict.  After every step the run list must
agree with the dict on every query *and* satisfy the structural
invariants (sorted, disjoint, coalesced) via
:func:`repro.check.check_runlist`.  Uniform windows mostly reach the
general splice; the in-place seeds draw windows inside one gap or one
run, so every in-place branch of :meth:`RunList.splice` meets the model
too.
"""

from __future__ import annotations

import random

import pytest

from repro.check import check_runlist
from repro.mem.runlist import RunList

AXIS = 64  # positions [0, AXIS)
VALUES = ("a", "b", "c")


def random_pieces(rng: random.Random, lo: int, hi: int):
    """Sorted, disjoint (start, end, value) runs inside [lo, hi)."""
    pieces = []
    pos = lo
    while pos < hi and len(pieces) < 3 and rng.random() < 0.8:
        start = rng.randint(pos, hi - 1)
        end = rng.randint(start + 1, hi)
        pieces.append((start, end, rng.choice(VALUES)))
        pos = end
    return pieces


def apply_model(model: dict, lo: int, hi: int, pieces) -> None:
    for position in range(lo, hi):
        model.pop(position, None)
    for start, end, value in pieces:
        for position in range(start, end):
            model[position] = value


def assert_equivalent(runs: RunList, model: dict, subject: str) -> None:
    check_runlist(runs, subject, 0, AXIS)
    # Point queries agree everywhere, including gaps.
    for position in range(AXIS):
        assert runs.value_at(position, default=None) == model.get(position), (
            f"{subject}: value_at({position})"
        )
    # Coverage counts agree on the full axis.
    assert runs.covered(0, AXIS) == len(model), f"{subject}: covered"
    # iter_runs reconstructs the model exactly.
    rebuilt = {}
    for start, end, value in runs.iter_runs(0, AXIS):
        for position in range(start, end):
            rebuilt[position] = value
    assert rebuilt == model, f"{subject}: iter_runs"


def uniform_op(rng: random.Random, runs: RunList):
    """``(lo, hi, pieces)``: any window, up to three pieces or a clear."""
    lo = rng.randrange(AXIS)
    hi = rng.randint(lo + 1, AXIS)
    if rng.random() < 0.25:
        return lo, hi, ()
    return lo, hi, random_pieces(rng, lo, hi)


def in_place_op(rng: random.Random, runs: RunList):
    """``(lo, hi, pieces)`` with the window inside one gap or one run.

    A run window clears the run's head, tail, middle or all of it (the
    window may reach into the gaps beside it).  A gap window clears
    nothing or gets one piece that meets the left run, the right run,
    both or neither, mostly with the value of a run it meets.
    """
    starts, ends, values = runs.starts, runs.ends, runs.values
    k = len(starts)
    gaps = []  # (gap start, gap end, index of the run after the gap)
    pos = 0
    for r in range(k):
        if starts[r] > pos:
            gaps.append((pos, starts[r], r))
        pos = ends[r]
    if pos < AXIS:
        gaps.append((pos, AXIS, k))
    if k and (not gaps or rng.random() < 0.4):
        r = rng.randrange(k)
        s, e = starts[r], ends[r]
        left_gap = ends[r - 1] if r else 0
        right_gap = starts[r + 1] if r + 1 < k else AXIS
        cut = rng.choice(("head", "tail", "middle", "whole"))
        if cut == "middle" and e - s >= 3:
            lo = rng.randint(s + 1, e - 2)
            return lo, rng.randint(lo + 1, e - 1), ()
        if cut == "head" and e - s >= 2:
            return rng.randint(left_gap, s), rng.randint(s + 1, e - 1), ()
        if cut == "tail" and e - s >= 2:
            return rng.randint(s + 1, e - 1), rng.randint(e, right_gap), ()
        return rng.randint(left_gap, s), rng.randint(e, right_gap), ()
    g0, g1, r = rng.choice(gaps)
    meets = rng.choice(("left", "right", "both", "neither"))
    s, e = g0, g1  # "both", and the fallback when the gap is too narrow
    if meets == "left" and g1 - g0 >= 2:
        e = rng.randint(g0 + 1, g1 - 1)
    elif meets == "right" and g1 - g0 >= 2:
        s = rng.randint(g0 + 1, g1 - 1)
    elif meets == "neither" and g1 - g0 >= 3:
        s = rng.randint(g0 + 1, g1 - 2)
        e = rng.randint(s + 1, g1 - 1)
    lo, hi = rng.randint(g0, s), rng.randint(e, g1)
    if rng.random() < 0.2:
        return lo, hi, ()
    neighbours = []
    if s == g0 and r > 0:
        neighbours.append(values[r - 1])
    if e == g1 and r < k:
        neighbours.append(values[r])
    if neighbours and rng.random() < 0.7:
        value = rng.choice(neighbours)
    else:
        value = rng.choice(VALUES)
    return lo, hi, [(s, e, value)]


def splice_shape(runs: RunList, lo: int, hi: int, pieces) -> str:
    """Which in-place branch of ``splice`` the operation takes, or
    ``"general"``, read from the run list before the splice."""
    starts, ends, values = runs.starts, runs.ends, runs.values
    hit = [r for r in range(len(starts)) if starts[r] < hi and ends[r] > lo]
    if not pieces:
        if not hit:
            return "clear-gap"
        if len(hit) > 1:
            return "general"
        s, e = starts[hit[0]], ends[hit[0]]
        if s < lo and e > hi:
            return "clear-middle"
        if s < lo:
            return "clear-tail"
        return "clear-head" if e > hi else "clear-whole"
    if hit or len(pieces) != 1:
        return "general"
    s, e, v = pieces[0]
    left = any(ends[r] == s and values[r] == v for r in range(len(starts)))
    right = any(starts[r] == e and values[r] == v for r in range(len(starts)))
    return {
        (True, True): "fill-join",
        (True, False): "fill-grow-left",
        (False, True): "fill-grow-right",
        (False, False): "fill-insert",
    }[left, right]


IN_PLACE_SHAPES = {
    "clear-gap",
    "clear-head",
    "clear-tail",
    "clear-middle",
    "clear-whole",
    "fill-join",
    "fill-grow-left",
    "fill-grow-right",
    "fill-insert",
}
#: Seeds whose windows come from :func:`in_place_op`.
IN_PLACE_SEEDS = range(100, 112)


@pytest.mark.parametrize("seed", [*range(12), *IN_PLACE_SEEDS])
def test_random_splices_match_per_page_model(seed):
    rng = random.Random(seed)
    draw = in_place_op if seed in IN_PLACE_SEEDS else uniform_op
    runs = RunList()
    model: dict = {}
    shapes = set()
    for step in range(150):
        lo, hi, pieces = draw(rng, runs)
        shapes.add(splice_shape(runs, lo, hi, pieces))
        if pieces:
            runs.splice(lo, hi, pieces)
        else:
            runs.clear(lo, hi)
        apply_model(model, lo, hi, pieces)
        assert_equivalent(runs, model, f"seed{seed} step{step}")
    if seed in IN_PLACE_SEEDS:
        assert shapes >= IN_PLACE_SHAPES, IN_PLACE_SHAPES - shapes


@pytest.mark.parametrize("seed", range(12, 18))
def test_random_window_queries_match(seed):
    rng = random.Random(seed)
    runs = RunList()
    model: dict = {}
    for _ in range(60):
        lo = rng.randrange(AXIS)
        hi = rng.randint(lo + 1, AXIS)
        pieces = random_pieces(rng, lo, hi)
        runs.splice(lo, hi, pieces)
        apply_model(model, lo, hi, pieces)
        for _ in range(8):
            qlo = rng.randrange(AXIS)
            qhi = rng.randint(qlo + 1, AXIS)
            expected = sum(1 for p in range(qlo, qhi) if p in model)
            assert runs.covered(qlo, qhi) == expected
            # iter_segments tiles [qlo, qhi) exactly: gaps + runs, in order.
            position = qlo
            for s, e, value in runs.iter_segments(qlo, qhi, absent=None):
                assert s == position
                assert e > s
                for p in range(s, e):
                    assert model.get(p) == value
                position = e
            assert position == qhi


def test_coalescing_across_splice_boundaries():
    runs = RunList()
    runs.splice(0, 4, [(0, 4, "a")])
    runs.splice(4, 8, [(4, 8, "a")])
    assert len(runs) == 1  # merged into one run
    runs.splice(2, 6, [(2, 6, "b")])
    assert list(runs.iter_runs()) == [(0, 2, "a"), (2, 6, "b"), (6, 8, "a")]
    runs.splice(2, 6, [(2, 6, "a")])
    assert len(runs) == 1
    check_runlist(runs, "coalesce", 0, 8)
