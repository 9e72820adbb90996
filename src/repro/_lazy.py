"""Lazy package re-exports (PEP 562).

Every package ``__init__`` under :mod:`repro` declares its public names
as a ``name -> defining module`` table rather than importing them, so
importing a package loads only what the caller goes on to touch::

    from repro._lazy import lazy_exports

    __getattr__, __dir__ = lazy_exports(__name__, {
        "ColumnSimulator": ".network.engine",
        "SimulationConfig": ".network.config",
    })

A name's module is imported on first access (attribute lookup or
``from package import name``); the value is then stored in the package
namespace, so later lookups are plain attribute reads.  Module paths
may be relative to the package.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module-level ``__getattr__`` and ``__dir__`` for ``package``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__
