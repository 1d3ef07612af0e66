"""Exported names loaded on first use (PEP 562, as in Scientific Python
SPEC 1): a package maps each name it exports to the submodule that defines
it, and importing the package imports none of those submodules."""

from __future__ import annotations

import importlib


def attach(namespace: dict, sources: dict[str, tuple[str, ...]]):
    """The module __getattr__, __dir__ and sorted __all__ of the package
    whose globals() are namespace, where each name in sources[sub] is
    defined in its submodule sub. A resolved name is stored in namespace, so
    it resolves only once."""
    package = namespace["__name__"]
    source_of = {name: sub for sub, names in sources.items() for name in names}

    def __getattr__(name: str):
        if name not in source_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{source_of[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source_of))

    return __getattr__, __dir__, sorted(source_of)
