"""Unit tests for smaps reports and the §4.6 unmap predicate."""

import pytest

from repro.mem.layout import PAGE_SIZE, Protection
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.mem.smaps import find_unmappable_library_ranges, smaps_report
from repro.mem.vmm import VirtualAddressSpace


@pytest.fixture
def phys():
    return PhysicalMemory()


def test_report_covers_all_mappings(phys):
    space = VirtualAddressSpace("p", phys)
    space.mmap(PAGE_SIZE, name="[heap]")
    space.mmap(PAGE_SIZE, name="[stack]")
    entries = smaps_report(space)
    assert [e.name for e in entries] == ["[heap]", "[stack]"]
    assert all(e.size == PAGE_SIZE for e in entries)


def test_solo_library_is_unmappable(phys):
    lib = MappedFile("/lib/libjvm.so", PAGE_SIZE * 4)
    space = VirtualAddressSpace("p", phys)
    m = space.mmap(PAGE_SIZE * 4, prot=Protection.READ, file=lib, name="libjvm")
    space.touch(m.start, PAGE_SIZE * 4, write=False)
    eligible = find_unmappable_library_ranges(space)
    assert len(eligible) == 1
    assert eligible[0].path == "/lib/libjvm.so"


def test_shared_library_not_unmappable(phys):
    lib = MappedFile("/lib/libjvm.so", PAGE_SIZE * 4)
    s1 = VirtualAddressSpace("a", phys)
    s2 = VirtualAddressSpace("b", phys)
    for s in (s1, s2):
        m = s.mmap(PAGE_SIZE * 4, prot=Protection.READ, file=lib)
        s.touch(m.start, PAGE_SIZE * 4, write=False)
    # pages cost nothing privately, so there is nothing to reclaim
    assert find_unmappable_library_ranges(s1) == []


def test_modified_file_mapping_not_unmappable(phys):
    lib = MappedFile("/lib/data", PAGE_SIZE * 2)
    space = VirtualAddressSpace("p", phys)
    m = space.mmap(PAGE_SIZE * 2, file=lib)
    space.touch(m.start, PAGE_SIZE, write=True)  # COW -> private_dirty
    assert find_unmappable_library_ranges(space) == []


def test_anonymous_mapping_not_unmappable(phys):
    space = VirtualAddressSpace("p", phys)
    m = space.mmap(PAGE_SIZE * 2)
    space.touch(m.start, PAGE_SIZE * 2)
    assert find_unmappable_library_ranges(space) == []


def test_untouched_library_not_listed(phys):
    lib = MappedFile("/lib/x", PAGE_SIZE * 2)
    space = VirtualAddressSpace("p", phys)
    space.mmap(PAGE_SIZE * 2, prot=Protection.READ, file=lib)
    assert find_unmappable_library_ranges(space) == []


def _smaps_filter(space):
    """The §4.6 selection as a filter over the full smaps report."""
    return [
        entry
        for entry in smaps_report(space)
        if entry.is_private_unmodified_file() and entry.report.private_clean
    ]


def test_unmappable_ranges_match_the_smaps_filter(phys):
    """Counter pre-checks skip mappings, never change the answer."""
    shared_lib = MappedFile("/lib/shared.so", PAGE_SIZE * 8)
    solo_lib = MappedFile("/lib/solo.so", PAGE_SIZE * 8)
    data = MappedFile("/lib/data", PAGE_SIZE * 8)
    other = VirtualAddressSpace("other", phys)
    m = other.mmap(PAGE_SIZE * 8, prot=Protection.READ, file=shared_lib)
    other.touch(m.start, PAGE_SIZE * 5, write=False)
    space = VirtualAddressSpace("p", phys)
    # Shared with the other space on its first five pages, solo after.
    m = space.mmap(PAGE_SIZE * 8, prot=Protection.READ, file=shared_lib)
    space.touch(m.start, PAGE_SIZE * 8, write=False)
    # Private clean: eligible.
    m = space.mmap(PAGE_SIZE * 8, prot=Protection.READ, file=solo_lib)
    space.touch(m.start + PAGE_SIZE, PAGE_SIZE * 4, write=False)
    # Privately dirtied (copy-on-write) next to clean pages: not eligible.
    m = space.mmap(PAGE_SIZE * 8, file=data)
    space.touch(m.start, PAGE_SIZE * 6, write=False)
    space.touch(m.start + PAGE_SIZE * 2, PAGE_SIZE, write=True)
    # MAP_SHARED file pages: never eligible.
    m = space.mmap(PAGE_SIZE * 4, file=data, shared=True)
    space.touch(m.start, PAGE_SIZE * 4, write=False)
    # Anonymous memory, and an untouched library: not eligible.
    m = space.mmap(PAGE_SIZE * 4)
    space.touch(m.start, PAGE_SIZE * 4)
    space.mmap(PAGE_SIZE * 2, prot=Protection.READ, file=MappedFile("/lib/cold", PAGE_SIZE * 2))

    eligible = find_unmappable_library_ranges(space)
    assert eligible == _smaps_filter(space)
    assert [e.path for e in eligible] == ["/lib/shared.so", "/lib/solo.so"]
    other.munmap(other.mappings()[0].start, PAGE_SIZE * 8)
    assert find_unmappable_library_ranges(space) == _smaps_filter(space)
    for entry in eligible:
        space.discard(entry.start, entry.size)
    assert find_unmappable_library_ranges(space) == _smaps_filter(space) == []
