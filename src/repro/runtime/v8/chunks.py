"""V8's chunked old space and large-object space.

Spaces are built from discontiguous 256 KiB chunks (Figure 3b).  Each chunk
donates its first 4 KiB page to self-describing metadata, which can never be
released (§4.4 -- unmapping the rest still frees 98.4% of the chunk).  The
old space is swept, not compacted, so after a collection live objects keep
their offsets and the free memory is *fragmented*: only pages not covered by
any live object can be returned to the OS, which the paper cites as the
remaining gap between Desiccant and the ideal for JavaScript.

Large objects get a mapping each in a :class:`LargeObjectSpace`; the §7
arena runtimes (CPython, Go) keep theirs in one too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, Iterator, List, Optional, Tuple

from repro.mem.layout import CHUNK_SIZE, PAGE_SIZE, page_ceil
from repro.mem.vmm import FaultCounts, Mapping, VirtualAddressSpace
from repro.runtime.object_model import HeapObject

#: Bytes of a chunk usable for objects (everything after the metadata page).
CHUNK_PAYLOAD = CHUNK_SIZE - PAGE_SIZE


@dataclass
class Chunk:
    """One chunk: a mapping plus bump state and object offsets."""

    mapping: Mapping
    top: int = 0  # bytes of payload bump-allocated
    #: (oid, payload offset) pairs for resident objects, address order.
    objects: List[Tuple[int, int]] = field(default_factory=list)
    #: Usable bytes (mapping size minus the metadata page).
    payload: int = CHUNK_PAYLOAD

    @property
    def free(self) -> int:
        """Unallocated payload bytes."""
        return self.payload - self.top

    def fits(self, size: int) -> bool:
        """Whether ``size`` bytes still fit in this chunk."""
        return size <= self.free

    def bump(self, oid: int, size: int) -> int:
        """Place ``oid`` at the current top; returns its payload offset."""
        if not self.fits(size):
            raise AssertionError(f"chunk bump of {size} exceeds free {self.free}")
        offset = self.top
        self.objects.append((oid, offset))
        self.top += size
        return offset

    def __getstate__(self) -> Tuple[object, ...]:
        """Compact pickle state (a flat tuple, no keyed ``__dict__``):
        chunks dominate the V8 portion of epoch checkpoints, and the flat
        form dumps faster at fewer bytes."""
        return (self.mapping, self.top, self.objects, self.payload)

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        self.mapping, self.top, self.objects, self.payload = state

    def live_page_mask(self, sizes: Dict[int, int]) -> List[bool]:
        """Which payload pages hold live data (index 0 == page after metadata).

        ``sizes`` maps oid -> object size for the objects still alive.
        """
        n_pages = self.payload // PAGE_SIZE
        mask = [False] * n_pages
        for oid, offset in self.objects:
            size = sizes.get(oid)
            if size is None:
                continue
            first = offset // PAGE_SIZE
            last = (offset + size - 1) // PAGE_SIZE
            for page in range(first, min(last + 1, n_pages)):
                mask[page] = True
        return mask


class ChunkedSpace:
    """A growable set of chunks with bump allocation into the freshest one.

    Parameterized so it also models allocators with the same shape at other
    granularities: CPython's 256 KiB arenas and Go's heap arenas (§7).
    ``unmap_empty_on_sweep=False`` keeps emptied chunks resident for reuse
    -- Go's behaviour, where only the (paused-while-frozen) background
    scavenger ever returns memory.
    """

    def __init__(
        self,
        name: str,
        space: VirtualAddressSpace,
        chunk_size: int = CHUNK_SIZE,
        unmap_empty_on_sweep: bool = True,
    ) -> None:
        if chunk_size % PAGE_SIZE or chunk_size <= PAGE_SIZE:
            raise ValueError("chunk size must be several whole pages")
        self.name = name
        self.space = space
        self.chunk_size = chunk_size
        self.payload = chunk_size - PAGE_SIZE
        self.unmap_empty_on_sweep = unmap_empty_on_sweep
        self.chunks: List[Chunk] = []
        self.total_chunks_allocated = 0

    @property
    def committed(self) -> int:
        return len(self.chunks) * self.chunk_size

    @property
    def used(self) -> int:
        return sum(c.top for c in self.chunks)

    def first_fit(self, size: int) -> Optional[Chunk]:
        """The chunk :meth:`allocate` would bump ``size`` bytes into: the
        newest one with room, or ``None`` when a new chunk is needed."""
        for chunk in reversed(self.chunks):
            if chunk.fits(size):
                return chunk
        return None

    def allocate(self, oid: int, size: int) -> Tuple[Chunk, int, bool]:
        """Place an object, returning ``(chunk, offset, chunk_was_new)``."""
        if size > self.payload:
            raise ValueError(
                f"{size}-byte object exceeds chunk payload; use large-object space"
            )
        chunk = self.first_fit(size)
        if chunk is not None:
            return chunk, chunk.bump(oid, size), False
        chunk = self._new_chunk()
        return chunk, chunk.bump(oid, size), True

    def _new_chunk(self) -> Chunk:
        mapping = self.space.mmap(self.chunk_size, name=f"[{self.name} chunk]")
        # The metadata page is written immediately on chunk creation.
        self.space.touch(mapping.start, PAGE_SIZE)
        chunk = Chunk(mapping, payload=self.payload)
        self.chunks.append(chunk)
        self.total_chunks_allocated += 1
        return chunk

    def sweep(self, live_sizes: Dict[int, int]) -> int:
        """Drop dead objects; handle chunks that became empty.

        Returns the number of chunks unmapped.  Live objects keep their
        offsets (no compaction), and a chunk's ``top`` only retreats when the
        dead objects formed its tail -- the fragmentation the paper notes.
        With ``unmap_empty_on_sweep=False`` an emptied chunk is reset for
        reuse but its dirty pages stay resident (frozen garbage).
        """
        freed = 0
        remaining: List[Chunk] = []
        for chunk in self.chunks:
            chunk.objects = [
                (oid, off) for oid, off in chunk.objects if oid in live_sizes
            ]
            if not chunk.objects:
                if self.unmap_empty_on_sweep:
                    self.space.munmap(chunk.mapping.start, chunk.mapping.length)
                    freed += 1
                    continue
                chunk.top = 0
                remaining.append(chunk)
                continue
            last_oid, last_off = chunk.objects[-1]
            chunk.top = min(chunk.top, last_off + live_sizes[last_oid])
            remaining.append(chunk)
        self.chunks = remaining
        return freed

    def spans(self, objects: Dict[int, HeapObject]) -> Iterator[Tuple[int, int]]:
        """``(addr, size)`` of every placed object still in ``objects``."""
        for chunk in self.chunks:
            base = chunk.mapping.start + PAGE_SIZE
            for oid, offset in chunk.objects:
                obj = objects.get(oid)
                if obj is not None:
                    yield base + offset, obj.size

    def release_free_pages(self, live_sizes: Dict[int, int]) -> int:
        """Discard payload pages not covered by live objects.

        The metadata page always stays.  Returns pages released.
        """
        released = 0
        for chunk in self.chunks:
            mask = chunk.live_page_mask(live_sizes)
            base = chunk.mapping.start + PAGE_SIZE  # skip metadata
            run_start: Optional[int] = None
            for index, live in enumerate(mask + [True]):  # sentinel ends runs
                if not live and run_start is None:
                    run_start = index
                elif live and run_start is not None:
                    released += self.space.discard(
                        base + run_start * PAGE_SIZE,
                        (index - run_start) * PAGE_SIZE,
                    )
                    run_start = None
        return released


class LargeObjectSpace:
    """Objects placed in a mapping each, beside the chunks.

    V8's large-object space, CPython's ``malloc`` path and Go's large
    spans.  ``committed`` is the running total of the mappings' lengths.
    """

    def __init__(self, name: str, space: VirtualAddressSpace) -> None:
        #: The name every object's mapping carries.
        self.name = name
        self.space = space
        #: oid -> its mapping, in placement order.
        self.objects: Dict[int, Mapping] = {}
        self.committed = 0

    def place(self, oid: int, size: int) -> FaultCounts:
        """Map and touch ``size`` bytes for ``oid``; returns the faults."""
        mapping = self.space.mmap(page_ceil(size), name=self.name)
        self.objects[oid] = mapping
        self.committed += mapping.length
        return self.space.touch(mapping.start, size)

    def sweep(self, live: Container[int]) -> None:
        """Unmap every object not in ``live``, in placement order."""
        for oid in [oid for oid in self.objects if oid not in live]:
            mapping = self.objects.pop(oid)
            self.committed -= mapping.length
            self.space.munmap(mapping.start, mapping.length)

    def spans(self) -> Iterator[Tuple[int, int]]:
        """``(addr, length)`` of every object's mapping."""
        for mapping in self.objects.values():
            yield mapping.start, mapping.length

    def mappings(self) -> List[Mapping]:
        """The objects' mappings, in placement order."""
        return list(self.objects.values())
