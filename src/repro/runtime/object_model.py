"""The object graph shared by every runtime simulator.

Objects are nodes with a byte size; an object is live exactly while a root
holds it (no workload creates references between objects, so liveness is
the root set).  Roots come in three flavours:

* **frame roots** -- live for one function invocation (temporaries); the
  runtime pops them at invocation exit, at which point the temporaries are
  garbage -- *frozen garbage* once the instance is paused.
* **persistent roots** -- the function's cached state (loaded libraries,
  connection pools); live across invocations.
* **weak roots** -- held only weakly (V8's JIT code cache is modelled this
  way).  Normal collections retain them; *aggressive* collections (§4.7)
  clear them, triggering deoptimization on the next run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple


@dataclass
class HeapObject:
    """One allocated object: identity and size."""

    oid: int
    size: int
    age: int = 0  # young collections survived (promotion decisions)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"object size must be positive, got {self.size}")

    @property
    def member_count(self) -> int:
        """How many mutator-visible objects this node stands for."""
        return 1


@dataclass
class CohortObject(HeapObject):
    """A run of ``count`` same-sized temporaries folded into one node.

    Workload models allocate long runs of identical objects that live and
    die together (one invocation's temporaries); representing each run as
    a single contiguous node keeps graph, GC, and placement costs
    O(cohorts) instead of O(objects).  ``size == count * unit`` always
    holds, so every byte-based query (live bytes, sweep volume, page
    masks) is exactly what the equivalent individual objects would give;
    ``member_count`` keeps object *counts* exact too.
    """

    count: int = 1
    unit: int = 0

    @property
    def member_count(self) -> int:
        return self.count


class ObjectGraph:
    """Object table plus root sets; the live set is the root set.

    Placement (which space / address an object lives at) is the runtime's
    job; the graph only knows identity, sizes, and roots.
    """

    def __init__(self) -> None:
        # Plain int, not itertools.count: the graph is part of the
        # checkpointable runtime state (repro.sim.checkpoint) and
        # pickling itertools iterators is deprecated since 3.12.
        self._next_id = 1
        self.objects: Dict[int, HeapObject] = {}
        self.persistent_roots: Set[int] = set()
        self.weak_roots: Set[int] = set()
        self._frames: List[Set[int]] = []

    # ------------------------------------------------------------- mutation

    def new_object(self, size: int) -> int:
        """Create an object and return its id (caller decides rooting)."""
        oid = self._next_id
        self._next_id += 1
        self.objects[oid] = HeapObject(oid, size)
        return oid

    def new_cohort(self, count: int, unit: int) -> int:
        """Create one node standing for ``count`` objects of ``unit`` bytes."""
        if count <= 0:
            raise ValueError(f"cohort count must be positive, got {count}")
        if unit <= 0:
            raise ValueError(f"cohort unit must be positive, got {unit}")
        oid = self._next_id
        self._next_id += 1
        self.objects[oid] = CohortObject(oid, count * unit, 0, count, unit)
        return oid

    def split_cohort(self, oid: int, head: int) -> int:
        """Cut cohort ``oid`` after its first ``head`` members.

        ``oid`` keeps the leading ``head`` members; a new cohort takes the
        rest and its id is returned.  The tail inherits the head's age and
        is rooted in every frame, persistent, and weak root set
        that holds the head, so it lives and dies exactly as the members
        it stands for.  Moving collectors call this where a run's members
        would part ways (a survivor space or an old chunk filling up).
        """
        obj = self.objects[oid]
        if not isinstance(obj, CohortObject):
            raise TypeError(f"object {oid} is not a cohort")
        if not 0 < head < obj.count:
            raise ValueError(
                f"split point {head} outside cohort of {obj.count} members"
            )
        tail = self._next_id
        self._next_id += 1
        rest = obj.count - head
        self.objects[tail] = CohortObject(
            tail, rest * obj.unit, obj.age, rest, obj.unit
        )
        obj.count = head
        obj.size = head * obj.unit
        if oid in self.persistent_roots:
            self.persistent_roots.add(tail)
        if oid in self.weak_roots:
            self.weak_roots.add(tail)
        for frame in self._frames:
            if oid in frame:
                frame.add(tail)
        return tail

    def push_frame(self) -> None:
        """Open a new invocation frame (its roots die with the frame)."""
        self._frames.append(set())

    def pop_frame(self) -> Set[int]:
        """Close the current frame, returning the roots it held."""
        if not self._frames:
            raise RuntimeError("no invocation frame to pop")
        return self._frames.pop()

    @property
    def frame_depth(self) -> int:
        """Number of open invocation frames."""
        return len(self._frames)

    def root_in_frame(self, oid: int) -> None:
        """Root ``oid`` in the current invocation frame."""
        self._require(oid)
        if not self._frames:
            raise RuntimeError("no open invocation frame")
        self._frames[-1].add(oid)

    def root_persistent(self, oid: int) -> None:
        """Root ``oid`` across invocations."""
        self._require(oid)
        self.persistent_roots.add(oid)

    def unroot_persistent(self, oid: int) -> None:
        """Drop a persistent root (idempotent)."""
        self.persistent_roots.discard(oid)

    def root_weak(self, oid: int) -> None:
        """Hold ``oid`` via a weak root (cleared by aggressive GC)."""
        self._require(oid)
        self.weak_roots.add(oid)

    def unroot_weak(self, oid: int) -> None:
        """Drop a weak root (idempotent)."""
        self.weak_roots.discard(oid)

    # ------------------------------------------------------------ liveness

    def reachable(self, include_weak: bool = True) -> Set[int]:
        """The live set: every rooted object, as a fresh set the caller
        may extend.  Weak roots count unless ``include_weak`` is false
        (aggressive collections)."""
        roots: Set[int] = set(self.persistent_roots)
        for frame in self._frames:
            roots |= frame
        if include_weak:
            roots |= self.weak_roots
        # Roots may point at already-removed objects only through bugs;
        # filter defensively so collectors never KeyError.
        return {oid for oid in roots if oid in self.objects}

    def live_bytes(self, include_weak: bool = True) -> int:
        """Total size of the live (rooted) objects."""
        return sum(self.objects[oid].size for oid in self.reachable(include_weak))

    def sweep(self, live: Set[int]) -> Tuple[int, int]:
        """Drop every object not in ``live``.

        Returns ``(collected_count, collected_bytes)``.  Also clears weak
        roots pointing at collected objects.
        """
        dead = [oid for oid in self.objects if oid not in live]
        collected_bytes = 0
        collected_count = 0
        for oid in dead:
            obj = self.objects[oid]
            collected_bytes += obj.size
            collected_count += obj.member_count
            del self.objects[oid]
        self.weak_roots &= live
        self.persistent_roots &= live
        for frame in self._frames:
            frame &= live
        return collected_count, collected_bytes

    def total_bytes(self) -> int:
        """Sum of all object sizes, live or not."""
        return sum(obj.size for obj in self.objects.values())

    def _require(self, oid: int) -> None:
        if oid not in self.objects:
            raise KeyError(f"unknown object id {oid}")

    # ------------------------------------------------------------ pickling

    def __getstate__(self) -> Tuple[object, ...]:
        """Compact pickle state: one small tuple per node instead of a
        class-tagged ``__dict__`` each.  Graph serialization dominates
        epoch checkpoints (``repro.sim.checkpoint``), and the flat form
        dumps several times faster at roughly half the bytes."""
        nodes: List[Tuple[object, ...]] = []
        append = nodes.append
        for obj in self.objects.values():
            if type(obj) is CohortObject:
                append((obj.oid, obj.size, obj.age, obj.count, obj.unit))
            else:
                append((obj.oid, obj.size, obj.age))
        return (
            self._next_id,
            nodes,
            self.persistent_roots,
            self.weak_roots,
            self._frames,
        )

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        next_id, nodes, persistent, weak, frames = state
        self._next_id = next_id
        objects: Dict[int, HeapObject] = {}
        for row in nodes:
            if len(row) == 5:
                oid, size, age, count, unit = row
                objects[oid] = CohortObject(oid, size, age, count, unit)
            else:
                oid, size, age = row
                objects[oid] = HeapObject(oid, size, age)
        self.objects = objects
        self.persistent_roots = persistent
        self.weak_roots = weak
        self._frames = frames
