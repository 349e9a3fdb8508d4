"""Stat-keyed file parse cache: re-parse only when the file changed.

Bench suites and checkpoint-restore arrival regeneration hand the same
Azure submission CSVs to the loader once per leg; parsing a
1440-column-per-row CSV repeatedly dominates setup time without ever
producing a different result.  :func:`cached_parse` memoizes the parsed
value per ``(path, tag)`` and invalidates on the file's identity stamp --
``(mtime_ns, size)`` from one ``stat`` call -- so an edited, rewritten,
or replaced file is always re-parsed while an unchanged one never is.

Lives next to :mod:`repro.trace.azure_loader`, its only caller, and is
the one module the determinism lint lets hold a module-level mutable
cache: entries are keyed by the file stamp, so a stale entry can never
satisfy a lookup, and :func:`reset` gives each leg a clean table.

Callers that return mutable containers must copy on the way out --
the cached value is shared across every hit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Tuple, TypeVar

T = TypeVar("T")

#: Cached parses: ``(resolved path, tag) -> ((mtime_ns, size), value)``.
_entries: Dict[Tuple[str, str], Tuple[Tuple[int, int], object]] = {}

_counters = {"hits": 0, "misses": 0, "invalidations": 0}

#: Entries kept before the oldest is dropped (a run touches a handful of
#: data files; the cap only guards against pathological sweeps).
MAX_ENTRIES = 32


def cached_parse(
    path: str | Path, parser: Callable[[Path], T], tag: str = ""
) -> T:
    """``parser(path)``, memoized until the file's ``(mtime, size)`` moves.

    ``tag`` namespaces different parsers over the same file.  The parser
    runs at most once per file identity; a changed stamp counts as an
    invalidation and re-parses in place.
    """
    path = Path(path)
    stat = path.stat()
    stamp = (stat.st_mtime_ns, stat.st_size)
    key = (str(path.resolve()), tag)
    entry = _entries.get(key)
    if entry is not None:
        if entry[0] == stamp:
            _counters["hits"] += 1
            return entry[1]  # type: ignore[return-value]
        _counters["invalidations"] += 1
    _counters["misses"] += 1
    value = parser(path)
    if key not in _entries and len(_entries) >= MAX_ENTRIES:
        _entries.pop(next(iter(_entries)))
    _entries[key] = (stamp, value)
    return value


def stats() -> Dict[str, int]:
    """Counter snapshot (plus the live entry count)."""
    return {**_counters, "entries": len(_entries)}


def reset() -> None:
    """Drop every entry and zero the counters (leg hygiene hook)."""
    _entries.clear()
    for key in _counters:
        _counters[key] = 0
