"""First-use name resolution for the package hubs (PEP 562).

A hub is a package ``__init__`` that re-exports names from its
submodules. Importing a hub runs none of them: :func:`lazy_hub` gives
it a module ``__getattr__`` that imports a re-exported name's defining
submodule, or a submodule itself, the first time either is accessed,
and derives ``__all__`` from the same table, so ``from hub import *``
still binds every name.

Python binds a submodule on its package when it first imports it. Four
re-exported names share their name with a submodule:
``collectives.allgather_ring`` (the function of ``allgather.py``, not
the module ``allgather_ring.py``), ``collectives.barrier``,
``collectives.gather`` and ``analysis.critical_path``. The eager hubs
bound those functions after their namesake modules had loaded; a lazy
hub refuses the module binding instead, so the function wins whichever
is imported first.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable, Iterable, List, Mapping, Tuple


def lazy_hub(
    package: str,
    exports: Mapping[str, Iterable[str]],
    modules: Iterable[str] = (),
) -> Tuple[List[str], Callable[[str], Any]]:
    """Make *package* a hub that resolves names on first use.

    *exports* maps each submodule to the names the hub re-exports from
    it; *modules* lists submodules the hub exports under their own
    names. Returns the hub's ``__all__`` and ``__getattr__``.
    """
    hub = sys.modules[package]
    namespace = vars(hub)
    source = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        sub = source.get(name)
        if sub is not None:
            value = getattr(importlib.import_module(f"{package}.{sub}"), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    class Hub(ModuleType):
        def __setattr__(self, name: str, value: Any) -> None:
            if not (name in source and isinstance(value, ModuleType)):
                super().__setattr__(name, value)

    hub.__class__ = Hub
    return [*modules, *source], __getattr__
