"""Every name a package hub re-exports is the object its defining
module binds, whichever of the two Python imported first.

A hub is a package ``__init__`` that re-exports names from its
submodules; hubs resolve those names on first use. Python binds a
submodule on its package when it first imports it, and four re-exported
names share their name with a submodule: ``collectives.allgather_ring``
(the function of ``allgather.py``), ``collectives.barrier``,
``collectives.gather`` and ``analysis.critical_path``. Each probe runs
in a fresh interpreter: one resolves the hubs' names before any
submodule is imported, the other imports every submodule first.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HUBS = (
    "repro",
    "repro.analysis",
    "repro.artifacts",
    "repro.backends",
    "repro.bench",
    "repro.collectives",
    "repro.core",
    "repro.machine",
    "repro.mpi",
    "repro.sim",
    "repro.util",
)

PROBE = """
import importlib, json, pkgutil, sys
import repro

hubs = {hubs!r}
star = {{}}


def import_all():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def star_import():
    for hub in hubs:
        namespace = {{}}
        exec(f"from {{hub}} import *", namespace)
        namespace.pop("__builtins__")
        star[hub] = namespace


if {modules_first!r}:
    import_all()
    star_import()
else:
    star_import()
    import_all()
leaves = [m for name, m in sorted(sys.modules.items())
          if name.startswith("repro.") and not hasattr(m, "__path__")]
wrong = []
for hub in hubs:
    package = sys.modules[hub]
    if sorted(star[hub]) != sorted(package.__all__):
        wrong.append(f"from {{hub}} import * bound {{sorted(star[hub])}}")
    for name in package.__all__:
        value = getattr(package, name)
        owners = [m for m in leaves if m.__name__.startswith(hub + ".")
                  and name in getattr(m, "__all__", ())]
        if owners:
            expected = getattr(owners[0], name)
        else:
            expected = sys.modules.get(f"{{hub}}.{{name}}", getattr(package, name))
        if value is not expected or star[hub][name] is not expected:
            wrong.append(f"{{hub}}.{{name}} is {{value!r}}")
import repro.collectives as c
import repro.analysis as a
from repro.collectives.allgather import allgather_ring
from repro.analysis.critical_path import critical_path
pinned = [
    c.allgather_ring is allgather_ring,
    c.barrier is sys.modules["repro.collectives.barrier"].barrier,
    c.gather is sys.modules["repro.collectives.gather"].gather,
    a.critical_path is critical_path,
    callable(c.allgather_ring) and callable(a.critical_path),
]
print(json.dumps({{"wrong": wrong, "pinned": pinned}}))
"""


def _probe(modules_first):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(hubs=HUBS, modules_first=modules_first)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "modules_first", [False, True], ids=["hubs-first", "modules-first"]
)
def test_hub_names_are_their_defining_objects(modules_first):
    out = _probe(modules_first)
    assert out == {"wrong": [], "pinned": [True] * 5}
