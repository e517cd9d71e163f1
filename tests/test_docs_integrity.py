"""Documentation integrity: referenced files exist, inventories match.

Docs rot silently; these tests keep README/DESIGN/EXPERIMENTS honest
against the tree they describe.
"""

import argparse
import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "docs" / "model.md",
    ROOT / "docs" / "api.md",
    ROOT / "docs" / "reproducing.md",
    ROOT / "docs" / "collectives.md",
    ROOT / "docs" / "performance.md",
    ROOT / "docs" / "analysis.md",
    ROOT / "docs" / "robustness.md",
]

_PATH_RE = re.compile(
    r"`((?:src/repro|examples|benchmarks|docs|tests)/[A-Za-z0-9_/.-]+\.(?:py|md))`"
)


_ENV_RE = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")

_MODULE_RE = re.compile(r"`(repro(?:\.\w+)+)")

_CLI_RE = re.compile(r"python -m repro ([a-z][a-z-]*)([^\n`]*)")
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _env_names_in_package_code():
    """``REPRO_*`` names in string literals under ``src/repro`` — the
    variable names code passes to ``os.environ`` — docstrings excluded."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                names.update(_ENV_RE.findall(node.value))
    return names


def test_all_doc_files_exist():
    for doc in DOCS:
        assert doc.exists(), doc


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_referenced_paths_exist(doc):
    text = doc.read_text()
    for match in _PATH_RE.finditer(text):
        path = ROOT / match.group(1)
        assert path.exists(), f"{doc.name} references missing {match.group(1)}"


def test_documented_env_vars_are_read():
    """A retired ``REPRO_*`` knob leaves the docs together with its code."""
    read = _env_names_in_package_code()
    for doc in DOCS:
        for name in sorted(set(_ENV_RE.findall(doc.read_text()))):
            assert name in read, f"{doc.name} documents {name}; src/repro never reads it"


def _resolves(dotted):
    """Import the longest module prefix of *dotted*, then walk the rest
    as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise  # a real module failed to import one of its own deps
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_documented_module_names_resolve():
    """A deleted module or function leaves the docs together with its code."""
    for doc in DOCS:
        for name in sorted(set(_MODULE_RE.findall(doc.read_text()))):
            assert _resolves(name), f"{doc.name} names {name}; it does not resolve"


def test_documented_cli_flags_exist():
    """A retired CLI flag leaves the docs together with its option."""
    from repro.__main__ import build_parser

    subcommands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for doc in DOCS:
        for cmd, rest in _CLI_RE.findall(doc.read_text()):
            assert cmd in subcommands, f"{doc.name} documents `repro {cmd}`"
            accepted = subcommands[cmd]._option_string_actions
            for flag in _FLAG_RE.findall(rest):
                assert flag in accepted, f"{doc.name}: `repro {cmd}` has no {flag}"


def test_readme_example_table_matches_directory():
    text = (ROOT / "README.md").read_text()
    on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
    referenced = set(re.findall(r"examples/([a-z_]+\.py)", text))
    assert referenced <= on_disk
    # Every shipped example is advertised.
    assert on_disk <= referenced


def test_design_lists_every_benchmark_module():
    text = (ROOT / "DESIGN.md").read_text() + (ROOT / "docs" / "reproducing.md").read_text()
    for bench in (ROOT / "benchmarks").glob("test_*.py"):
        if bench.name == "test_zz_report.py":
            continue  # collation helper, not an experiment
        assert bench.name in text, f"{bench.name} not documented"


def test_experiments_covers_every_figure():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for needle in ("Fig. 6(a)", "Fig. 6(b)", "Fig. 6(c)", "Fig. 7", "Fig. 8", "P=8", "P=10"):
        assert needle in text, needle


def test_registry_algorithms_documented():
    from repro.collectives import ALGORITHMS

    api_doc = (ROOT / "docs" / "api.md").read_text()
    for name in ALGORITHMS:
        assert name in api_doc, f"algorithm {name} missing from docs/api.md"
