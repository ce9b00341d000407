"""Package exports that are imported on first use (PEP 562).

A package ``__init__`` declares its public names once, in one literal
table, and :func:`attach` turns that table into the package's
``__getattr__``, ``__dir__`` and ``__all__``::

    __getattr__, __dir__, __all__ = attach(__name__, {
        ".": ("programs",),          # submodules exported as themselves
        ".plan": ("ShardPlan", "shard_unit"),
        "..errors": ("ExecError",),
    })

Keys are module names relative to the package, written as in a ``from``
import.  Nothing in the table is imported until one of its names is
first read; then its module is imported and the value is stored in the
package, so later reads are plain attribute lookups.  ``repro-lint``
reads the same table as the package's re-exports, so keep it a literal.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def attach(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``'s ``exports``."""
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        if module == ".":
            value = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__, list(origin)
