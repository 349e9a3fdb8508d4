"""Package exports resolved on first use (PEP 562).

A package ``__init__`` passes :func:`export` its public names, grouped by
the module that defines each.  Importing the package then runs none of
those modules: the first read of a name imports its defining module,
and the name is bound on the package, so later reads are plain
attribute lookups.  ``from repro import run_single`` thus loads
:mod:`repro.analysis.characterize` and what it imports, and a
single-platform replay never compiles the cluster engine, the invariant
oracle or the analysis harnesses (docs/ARCHITECTURE.md, "What a run
imports").
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Dict, Iterable, List, Mapping


class _Package(types.ModuleType):
    """A lazily exporting package: an export outranks a same-named submodule.

    The import system binds each submodule on its package as the
    submodule first loads.  :mod:`repro.trace` exports the function
    ``replay`` from its submodule :mod:`repro.trace.replay`, and
    ``from repro.trace import replay`` must give the function whichever
    import loaded the submodule first, so that binding is skipped and
    the name resolves through ``__getattr__``.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if (
            isinstance(value, types.ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in self.__dict__.get("__all__", ())
        ):
            return
        super().__setattr__(name, value)


def export(package: str, exports: Mapping[str, Iterable[str]]) -> List[str]:
    """Make ``package`` resolve its exports lazily; return its ``__all__``.

    ``exports`` maps each defining module to the names ``package``
    re-exports from it.
    """
    module = sys.modules[package]
    origin: Dict[str, str] = {
        name: source for source, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        source = origin.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source), name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(origin))

    module.__getattr__ = __getattr__
    module.__dir__ = __dir__
    module.__class__ = _Package
    return list(origin)
