"""Determinism lint: an AST pass banning wall-clock and unseeded RNG.

The whole repository's claim to reproducibility rests on the simulation
being a pure function of its inputs: the same sweep re-run on another
machine must produce bit-identical transfer counts, timings, and cached
results (the disk cache keys on content hashes, so hidden
nondeterminism silently poisons it). This lint enforces that statically
for the deterministic core — ``sim/``, ``collectives/``, ``mpi/``,
``machine/``, ``analysis/``, ``core/``, ``bench/`` —
where neither wall-clock time nor global random state may be consulted:

* ``time.time`` / ``monotonic`` / ``perf_counter`` (and ``_ns``
  variants): simulated time comes from the event loop, never the host.
* ``datetime.now`` / ``utcnow`` / ``today``: same, for dates.
* module-level ``random.*`` calls (global, unseeded RNG state) and the
  legacy ``numpy.random.*`` functions: randomness must flow through an
  explicitly seeded ``random.Random(seed)`` or
  ``numpy.random.default_rng(seed)`` instance passed in by the caller.

A line can opt out with a trailing ``# det: allow`` comment — the only
current uses are the solver's wall-time *telemetry* counters in
``sim/flows.py`` and the microbenchmark harness's stopwatch in
``bench/micro.py``, which measure how long something took without ever
feeding back into simulated results. The marker keeps such exceptions
visible in review rather than smuggled in.

Run as ``python -m repro.analysis.lint [paths...]`` (or ``repro lint``);
with no arguments it checks the default target packages. Exit status is
the number of files with violations (0 = clean).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "LintViolation",
    "DEFAULT_TARGETS",
    "lint_source",
    "lint_file",
    "lint_paths",
    "default_target_paths",
    "main",
]

#: Packages under ``src/repro`` that must stay deterministic. ``machine``
#: and ``analysis`` joined once the static cost model started deriving
#: results from them (a nondeterministic link enumeration or cost pass
#: would poison the differential gate just like a nondeterministic sim).
#: ``core`` and ``bench`` joined with the parametric proof layer: the
#: high-level experiment drivers feed cached result files and BENCH
#: ledgers (``core`` also holds the sweep executor's worker pool), and
#: the microbenchmark harness's stopwatch is exactly the kind of clock
#: read that must stay visibly marked rather than drift into measured
#: results.
DEFAULT_TARGETS = (
    "sim",
    "collectives",
    "mpi",
    "machine",
    "analysis",
    "core",
    "bench",
)

ALLOW_MARKER = "det: allow"

#: Fully-qualified callables that read the host clock.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: ``random.*`` attributes that are fine to call at module level.
#: ``Random`` / ``SystemRandom`` are constructors (seeding checked at the
#: call site); everything else on the module mutates or reads the hidden
#: global generator.
_RANDOM_ALLOWED = {"Random", "SystemRandom"}

#: ``numpy.random.*`` attributes that are part of the modern, explicitly
#: seeded Generator API rather than the legacy global-state one.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

#: Constructors that must receive an explicit seed argument.
_NEEDS_SEED = {"random.Random", "numpy.random.default_rng"}


@dataclass(frozen=True)
class LintViolation:
    """One determinism finding."""

    path: str
    line: int
    col: int
    rule: str  # "wall-clock" | "global-random" | "unseeded-rng"
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class _AliasTracker(ast.NodeVisitor):
    """Resolve names back to the canonical modules they were imported as.

    Handles ``import time``, ``import time as t``, ``from time import
    monotonic``, ``from datetime import datetime as dt``, ``import
    numpy as np`` / ``from numpy import random as npr`` — enough to see
    through the aliasing idioms that actually occur in Python code.
    """

    def __init__(self) -> None:
        # local name -> canonical dotted prefix ("time", "numpy.random", ...)
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            canonical = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = canonical
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                self.aliases[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chain as a string, or None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _canonical(aliases: Dict[str, str], dotted: str) -> str:
    """Rewrite the leading alias segment to its canonical module path."""
    head, _, rest = dotted.partition(".")
    base = aliases.get(head)
    if base is None:
        return dotted
    return f"{base}.{rest}" if rest else base


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str, aliases: Dict[str, str]) -> None:
        self.path = path
        self.aliases = aliases
        self.violations: List[LintViolation] = []

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            name = _canonical(self.aliases, dotted)
            self._check_call(node, name)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, name: str) -> None:
        if name in _WALL_CLOCK:
            self._flag(
                node,
                "wall-clock",
                f"call to {name}() — simulated components must not read "
                f"the host clock; take time from the event loop",
            )
            return
        if name in _NEEDS_SEED:
            if not node.args and not node.keywords:
                self._flag(
                    node,
                    "unseeded-rng",
                    f"{name}() without a seed — pass an explicit seed so "
                    f"runs are reproducible",
                )
            return
        head, _, attr = name.rpartition(".")
        if head == "random" and attr not in _RANDOM_ALLOWED:
            self._flag(
                node,
                "global-random",
                f"call to {name}() uses the hidden module-level generator; "
                f"use an explicitly seeded random.Random(seed) instance",
            )
        elif head == "numpy.random" and attr not in _NP_RANDOM_ALLOWED:
            self._flag(
                node,
                "global-random",
                f"call to {name}() uses numpy's legacy global generator; "
                f"use numpy.random.default_rng(seed)",
            )


def lint_source(source: str, filename: str = "<string>") -> List[LintViolation]:
    """Lint Python *source*; returns the violations found."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            LintViolation(
                path=filename,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule="syntax",
                message=f"could not parse: {exc.msg}",
            )
        ]
    tracker = _AliasTracker()
    tracker.visit(tree)
    visitor = _DeterminismVisitor(filename, tracker.aliases)
    visitor.visit(tree)
    lines = source.splitlines()
    kept = []
    for v in visitor.violations:
        text = lines[v.line - 1] if 0 < v.line <= len(lines) else ""
        if ALLOW_MARKER in text:
            continue
        kept.append(v)
    return kept


def lint_file(path: Path) -> List[LintViolation]:
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def lint_paths(paths: Iterable[Path]) -> List[LintViolation]:
    """Lint every ``.py`` file under *paths* (files or directories)."""
    violations: List[LintViolation] = []
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                violations.extend(lint_file(sub))
        else:
            violations.extend(lint_file(path))
    return violations


def default_target_paths() -> List[Path]:
    """The deterministic-core packages, located relative to this file."""
    pkg_root = Path(__file__).resolve().parent.parent
    return [pkg_root / name for name in DEFAULT_TARGETS]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    paths = [Path(a) for a in args] if args else default_target_paths()
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"determinism lint: no such path: {p}", file=sys.stderr)
        return 2
    violations = lint_paths(paths)
    for v in violations:
        print(v)
    checked = ", ".join(str(p) for p in paths)
    if violations:
        files = len({v.path for v in violations})
        print(f"determinism lint: {len(violations)} violation(s) in {files} file(s)")
        return 1
    print(f"determinism lint: clean ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
