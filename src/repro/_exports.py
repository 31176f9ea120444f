"""Package exports resolved on first use (PEP 562).

A package that re-exports its submodules' names eagerly loads every one
of those submodules whenever any of them is imported, since Python runs
a package's ``__init__`` before its submodules.  A package built with
:func:`lazy_exports` instead maps each export to the submodule that
defines it and imports that submodule only when the name is read, so
an entry point loads only the code it runs.

Two rules hold for every such package:

- **No cached binding.**  A resolved export is not stored in the
  package namespace: every lookup reads the defining module's current
  binding, so a function patched there (and restored again) is what
  the package hands out.
- **The export wins a name clash.**  When an export shares its name
  with a submodule (``repro.workflow``, the builder, and the
  ``repro.workflow`` package), importing the submodule does not bind
  it over the export, so ``from repro import workflow`` is the builder
  whatever was imported before.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable, List, Mapping, Tuple


class _LazyPackage(ModuleType):
    """A package module whose exports keep their names against the
    import system's binding of a same-named submodule."""

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, ModuleType) and name in self._HOMES:
            return
        super().__setattr__(name, value)


def lazy_exports(
    package: str, homes: Mapping[str, str],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``, whose
    export ``name`` is defined in submodule ``homes[name]`` (a dotted
    path relative to the package).  The package must name the table
    ``_HOMES``; its other globals stay ordinary eager bindings."""
    module = sys.modules[package]
    module.__class__ = _LazyPackage

    def __getattr__(name: str) -> Any:
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{package}.{home}"), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(homes))

    return __getattr__, __dir__
