"""Differential test: run-length VMM vs the per-page reference oracle.

Drives a :class:`repro.mem.vmm.VirtualAddressSpace` and a
:class:`repro.mem.reference.ReferenceAddressSpace` through identical
randomized mmap/touch/discard/swap/mprotect/munmap sequences -- two
parallel universes with their own physical memory and mapped files -- and
asserts identical observable state after every single step: return values,
``MemoryReport``s, per-page states, fault counters, version/release_epoch
cadence, physical/swap counters, and smaps output -- and that the counter
reads (``uss_bytes``, ``resident_bytes``) equal the reports' integers.
Every touch also checks the fault runs the VMM reports against the pages
whose state the reference touch changed, and every step checks that each
mapping's run list stays sorted, disjoint and coalesced.
"""

from __future__ import annotations

import random

import pytest

from repro.check import check_runlist
from repro.mem.accounting import measure, measure_mapping, resident_bytes, uss_bytes
from repro.mem.layout import PAGE_SHIFT, PAGE_SIZE, PROT_RW, Protection
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.mem.reference import ReferenceAddressSpace
from repro.mem.smaps import smaps_report
from repro.mem.vmm import (
    MemoryError_,
    PageState,
    VirtualAddressSpace,
)

BASE = 0x7F00_0000_0000
MAX_MAP_PAGES = 48


def _report_tuple(r):
    return (
        r.private_dirty,
        r.private_clean,
        r.shared_clean,
        r.shared_dirty,
        pytest.approx(r.pss),
        r.swap,
    )


class DualSpace:
    """The two universes plus the comparison machinery."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.phys_new = PhysicalMemory()
        self.phys_ref = PhysicalMemory()
        self.new = VirtualAddressSpace("new", self.phys_new, mmap_base=BASE)
        self.ref = ReferenceAddressSpace("ref", self.phys_ref, mmap_base=BASE)
        # Mirrored file pairs, created lazily per library "path".
        self.files: dict = {}
        self.n_files = 0

    # ----------------------------------------------------------- operations

    def both(self, op, *args):
        """Apply one operation to both spaces; results/errors must agree."""
        results = []
        for space in (self.new, self.ref):
            try:
                results.append(("ok", op(space, *args)))
            except MemoryError_ as exc:
                results.append(("err", type(exc).__name__))
        kind_new, out_new = results[0]
        kind_ref, out_ref = results[1]
        assert kind_new == kind_ref, f"{op}: {results}"
        if kind_new == "err":
            assert out_new == out_ref
            return None
        return out_new, out_ref

    def file_pair(self, key: int, pages: int):
        if key not in self.files:
            self.files[key] = (
                MappedFile(f"/lib/{key}.so#new", pages * PAGE_SIZE),
                MappedFile(f"/lib/{key}.so#ref", pages * PAGE_SIZE),
            )
        return self.files[key]

    def random_op(self) -> None:
        rng = self.rng
        mappings = self.new.mappings()
        choice = rng.random()
        if not mappings or choice < 0.18:
            self.op_mmap()
        elif choice < 0.55:
            self.op_touch()
        elif choice < 0.70:
            self.op_discard()
        elif choice < 0.82:
            self.op_swap_out()
        elif choice < 0.90:
            self.op_protect()
        else:
            self.op_munmap()
        self.check()

    def op_mmap(self) -> None:
        rng = self.rng
        pages = rng.randint(1, MAX_MAP_PAGES)
        if rng.random() < 0.4:
            key = rng.randint(0, 3)
            f_new, f_ref = self.file_pair(key, max(pages, rng.randint(1, MAX_MAP_PAGES)))
            # The pair may predate this call with a smaller file; mappings
            # must never extend past the file end (as in the real runtimes).
            file_pages = f_new.num_pages
            pages = min(pages, file_pages)
            shared = rng.random() < 0.3
            offset = rng.randint(0, file_pages - pages) * PAGE_SIZE
            prot = PROT_RW if shared or rng.random() < 0.5 else Protection.READ
            self.both(
                lambda s, fn=f_new, fr=f_ref: s.mmap(
                    pages * PAGE_SIZE,
                    prot=prot,
                    file=fn if s is self.new else fr,
                    file_offset=offset,
                    shared=shared,
                    name=f"/lib/{key}.so",
                )
            )
        else:
            self.both(lambda s: s.mmap(pages * PAGE_SIZE))

    def _random_window(self):
        """A byte range overlapping a random live mapping (possibly past it)."""
        rng = self.rng
        m = rng.choice(self.new.mappings())
        first = rng.randint(0, m.num_pages - 1)
        span = rng.randint(1, m.num_pages - first)
        addr = m.start + first * PAGE_SIZE + rng.randint(0, PAGE_SIZE - 1)
        length = span * PAGE_SIZE - rng.randint(0, PAGE_SIZE - 1)
        return addr, max(0, length)

    def op_touch(self) -> None:
        addr, length = self._random_window()
        self.touch(addr, length, write=self.rng.random() < 0.6)

    def touch(self, addr: int, length: int, write: bool) -> None:
        """Touch both spaces; the fault runs the VMM reports must be the
        pages whose state the reference touch changed, ascending, with
        ``swapped`` exactly where the page was ``SWAPPED`` before."""
        before = self.ref_pages()
        faults: list = []
        out = self.both(
            lambda s: s.touch(addr, length, write=write, faults=faults)
            if s is self.new
            else s.touch(addr, length, write=write)
        )
        if out is not None:
            a, b = out
            assert (a.minor, a.major) == (b.minor, b.major)
        after = self.ref_pages()
        changed = {
            page: before.get(page) is PageState.SWAPPED
            for page in before.keys() | after.keys()
            if before.get(page) is not after.get(page)
        }
        reported = {}
        previous_end = None
        for first, end, swapped in faults:
            assert first < end
            assert previous_end is None or previous_end <= first, faults
            previous_end = end
            for page in range(first, end):
                reported[page] = swapped
        assert reported == changed

    def ref_pages(self) -> dict:
        """The reference space's present pages: absolute page -> state."""
        return {
            (m.start >> PAGE_SHIFT) + rel: state
            for m in self.ref.mappings()
            for rel, state in m.page_states()
        }

    def op_discard(self) -> None:
        addr, length = self._random_window()
        out = self.both(lambda s: s.discard(addr, length))
        if out is not None:
            assert out[0] == out[1]

    def op_swap_out(self) -> None:
        addr, length = self._random_window()
        out = self.both(lambda s: s.swap_out_range(addr, length))
        if out is not None:
            a, b = out
            assert (a.swapped, a.dropped) == (b.swapped, b.dropped)

    def op_protect(self) -> None:
        rng = self.rng
        m = rng.choice(self.new.mappings())
        first = rng.randint(0, m.num_pages - 1)
        span = rng.randint(1, m.num_pages - first)
        addr = m.start + first * PAGE_SIZE
        length = span * PAGE_SIZE
        if rng.random() < 0.5:
            self.both(lambda s: s.uncommit(addr, length))
        else:
            self.both(lambda s: s.commit(addr, length))

    def op_munmap(self) -> None:
        rng = self.rng
        m = rng.choice(self.new.mappings())
        first = rng.randint(0, m.num_pages - 1)
        span = rng.randint(1, m.num_pages - first)
        self.both(
            lambda s: s.munmap(m.start + first * PAGE_SIZE, span * PAGE_SIZE)
        )

    # ----------------------------------------------------------- invariants

    def check(self) -> None:
        new, ref = self.new, self.ref
        assert new.version == ref.version
        assert new.release_epoch == ref.release_epoch
        assert (new.faults.minor, new.faults.major) == (
            ref.faults.minor,
            ref.faults.major,
        )
        assert self.phys_new.anon_bytes == self.phys_ref.anon_bytes
        assert self.phys_new.file_cache_bytes == self.phys_ref.file_cache_bytes
        assert self.phys_new.swap.pages == self.phys_ref.swap.pages
        assert self.phys_new.total_frame_allocs == self.phys_ref.total_frame_allocs

        maps_new, maps_ref = new.mappings(), ref.mappings()
        assert [(m.start, m.length) for m in maps_new] == [
            (m.start, m.length) for m in maps_ref
        ]
        for mn, mr in zip(maps_new, maps_ref):
            assert mn.prot == mr.prot and mn.shared == mr.shared
            assert (mn.n_anon, mn.n_file, mn.n_swapped) == (
                mr.n_anon,
                mr.n_file,
                mr.n_swapped,
            )
            # Exact per-page states, via both the run and dict interfaces,
            # kept as sorted, disjoint, coalesced runs.
            check_runlist(mn._runs, f"{mn.name}@{mn.start:#x}", 0, mn.num_pages)
            assert dict(mn.page_states()) == dict(mr.page_states())
            for rel in range(mn.num_pages):
                assert mn.state_of(rel) is mr.state_of(rel)
                assert (rel in mn.pages) == (rel in mr.pages)
            assert _report_tuple(measure_mapping(mn)) == _report_tuple(
                measure_mapping(mr)
            )
            # The counter reads production takes are the report's integers.
            assert resident_bytes([mn]) == measure_mapping(mn).rss
            assert resident_bytes([mr]) == measure_mapping(mr).rss
        assert _report_tuple(measure(new)) == _report_tuple(measure(ref))
        assert uss_bytes(new) == measure(new).uss == uss_bytes(ref)
        assert resident_bytes(maps_new) == measure(new).rss
        smaps_new, smaps_ref = smaps_report(new), smaps_report(ref)
        assert len(smaps_new) == len(smaps_ref)
        for en, er in zip(smaps_new, smaps_ref):
            assert (en.start, en.end, en.name, en.shared) == (
                er.start,
                er.end,
                er.name,
                er.shared,
            )
            assert _report_tuple(en.report) == _report_tuple(er.report)
            assert en.is_private_unmodified_file() == er.is_private_unmodified_file()


@pytest.mark.parametrize("seed", range(8))
def test_differential_random_sequences(seed):
    dual = DualSpace(seed)
    for _ in range(120):
        dual.random_op()
    dual.both(lambda s: s.close())
    assert dual.phys_new.anon_bytes == 0 == dual.phys_ref.anon_bytes
    assert dual.phys_new.file_cache_bytes == 0 == dual.phys_ref.file_cache_bytes
    assert dual.phys_new.swap.pages == 0 == dual.phys_ref.swap.pages


def test_differential_split_heavy():
    """Bias toward splits: mprotect/munmap mid-mapping with file pages."""
    dual = DualSpace(1234)
    f_new, f_ref = dual.file_pair(9, 32)
    out = dual.both(
        lambda s: s.mmap(
            32 * PAGE_SIZE,
            prot=PROT_RW,
            file=f_new if s is dual.new else f_ref,
            name="/lib/9.so",
        )
    )
    m_new, _ = out
    start = m_new.start
    dual.touch(start, 32 * PAGE_SIZE, write=False)
    dual.check()
    dual.touch(start + 4 * PAGE_SIZE, 3 * PAGE_SIZE, write=True)
    dual.check()
    dual.both(lambda s: s.mprotect(start + 8 * PAGE_SIZE, 8 * PAGE_SIZE, Protection.READ))
    dual.check()
    dual.both(lambda s: s.munmap(start + 20 * PAGE_SIZE, 4 * PAGE_SIZE))
    dual.check()
    dual.both(lambda s: s.swap_out_range(start, 16 * PAGE_SIZE))
    dual.check()
    dual.touch(start, 8 * PAGE_SIZE, write=True)
    dual.check()


def test_page_state_view_matches_dict_protocol():
    space = VirtualAddressSpace("view", PhysicalMemory())
    m = space.mmap(PAGE_SIZE * 4)
    space.touch(m.start, PAGE_SIZE * 2)
    view = m.pages
    assert 0 in view and 1 in view and 2 not in view
    assert view[0] is PageState.ANON_DIRTY
    assert view.get(3) is None
    assert len(view) == 2
    assert sorted(view) == [0, 1]
    assert dict(view.items()) == {
        0: PageState.ANON_DIRTY,
        1: PageState.ANON_DIRTY,
    }
    with pytest.raises(KeyError):
        view[2]
