"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark module renders the paper-style rows for its figure into
``benchmarks/results/<exp_id>.txt`` *and* prints them (visible with
``pytest -s``), then lets pytest-benchmark time one representative
simulation point.
"""

import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# test_solver_micro.py holds the solver to the test suite's from-scratch
# reference (tests/sim/reference_solver.py); make the repository root
# importable however pytest was started.
_ROOT = str(pathlib.Path(__file__).parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def pytest_collection_modifyitems(items):
    """Tag everything under benchmarks/ with the registered ``bench``
    marker so ``pytest -m "not bench"`` deselects the slow figure runs.

    The hook sees the whole collected session, so filter by path — other
    directories' tests must stay unmarked.
    """
    bench_dir = pathlib.Path(__file__).parent
    for item in items:
        if bench_dir in pathlib.Path(str(item.fspath)).parents:
            item.add_marker("bench")


def publish(exp_id: str, text: str) -> None:
    """Print a rendered table/plot and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def assert_opt_wins(experiment, slack: float = 1e-9) -> None:
    """The reproduction's hard shape claim: opt >= native at every point."""
    for cmp in experiment.comparisons():
        assert cmp.opt.time <= cmp.native.time * (1 + slack), (
            f"tuned design slower at P={cmp.nranks}, size={cmp.nbytes}: "
            f"{cmp.opt.time} vs {cmp.native.time}"
        )
