"""Call spans around the simulator's public functions, installed from outside.

A :class:`Tracer` replaces chosen functions (class attributes or module
functions) with timing wrappers and puts the originals back when its
``installed`` block exits.  Nothing under ``src/`` knows it is traced.

Each call of a wrapped function is one span.  Per span key the tracer
keeps:

* ``calls`` -- every call, nested ones included;
* ``inclusive`` -- wall seconds of the outermost calls of that key only,
  so a recursive call is not counted twice;
* ``self_time`` -- wall seconds minus the part covered by wrapped child
  spans, so ``alloc_cohort`` -> ``alloc`` -> ``touch`` is counted once:
  the self times of all spans sum to the wall time the spans cover;
* ``edges`` -- ``(parent key, key)`` call counts, the parent being the
  innermost open span (``None`` at top level).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def defining_class(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose own namespace defines ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


class Tracer:
    """Span bookkeeping plus the patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.edges: Dict[Tuple[Optional[str], str], int] = {}
        #: Open spans, innermost last: ``[key, seconds covered by children]``.
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        #: ``(owner, name, original)`` in installation order.
        self._patches: List[tuple] = []

    # ------------------------------------------------------------- spans

    def span(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records one ``key`` span."""
        clock = self.clock
        stack = self._stack
        depth = self._depth
        calls = self.calls
        inclusive = self.inclusive
        self_time = self.self_time
        edges = self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            depth[key] = depth.get(key, 0) + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[key] -= 1
                calls[key] = calls.get(key, 0) + 1
                edge = (parent, key)
                edges[edge] = edges.get(edge, 0) + 1
                self_time[key] = self_time.get(key, 0.0) + elapsed - frame[1]
                if not depth[key]:
                    inclusive[key] = inclusive.get(key, 0.0) + elapsed
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def covered_seconds(self) -> float:
        """Wall seconds spent inside any span (the sum of self times)."""
        return sum(self.self_time.values())

    # ----------------------------------------------------------- patches

    def patch(self, owner: object, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` (defined on ``owner`` itself) by ``make(original)``.

        A name already patched on the same owner is left as it is, so a
        base-class method shared by several subclasses is wrapped once.
        """
        if any(o is owner and n == name for o, n, _ in self._patches):
            return
        original = vars(owner)[name]
        if isinstance(original, (staticmethod, classmethod)) or not callable(original):
            raise TypeError(f"{owner!r}.{name} is not a plain function")
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def wrap(self, owner: object, name: str, key: str) -> None:
        """Record a ``key`` span around every call of ``owner.name``."""
        self.patch(owner, name, lambda fn: self.span(key, fn))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Restore every patch made by this tracer when the block exits."""
        try:
            yield self
        finally:
            self.restore()
