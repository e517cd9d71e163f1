"""Start-up stays lean: the CLI and a sweep never load the analysis
stack, networkx, the artifact store or numpy, which are imported on
first use only. numpy stays unloaded through the gates that move no
real bytes and through fault-plan sweeps too. The package hubs resolve
names on first use, so each command loads only the modules it runs.

Each probe runs in a fresh interpreter, because the test process has
long since imported both.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAZY = ("networkx", "numpy", "repro.analysis", "repro.artifacts")

SWEEP_PROBE = """
import json, sys
import repro.__main__ as entry
lazy = {lazy!r}
out = {{"import": [m for m in lazy if m in sys.modules]}}
out["exit"] = entry.main({argv!r})
out["sweep"] = [m for m in lazy if m in sys.modules]
print(json.dumps(out))
"""

NUMPY_PROBE = """
import contextlib, io, json, sys
import repro.__main__ as entry
out = []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = entry.main(argv)
    out.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(out))
"""

ACCESS_PROBE = """
import json, sys
import repro
out = {"before": "repro.analysis" in sys.modules}
out["attr"] = repro.analysis.replaygate.__name__
namespace = {}
exec("from repro import *", namespace)
out["star"] = namespace["analysis"].__name__
print(json.dumps(out))
"""

LOADED_PROBE = """
import contextlib, io, json, sys
import repro.__main__ as entry
argv = {argv!r}
watched = {watched!r}
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = entry.main(argv)
loaded = sorted(
    m for m in sys.modules
    if any(m == w or m.startswith(w + ".") for w in watched)
)
print(json.dumps([code, loaded]))
"""


def _probe(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_start_and_sweep_leave_analysis_and_networkx_unloaded():
    argv = [
        "sweep", "--machine", "hornet", "--nodes", "2", "--nranks", "8",
        "--sizes", "4KiB,64KiB", "--jobs", "1", "--no-cache",
    ]
    out = _probe(SWEEP_PROBE.format(lazy=LAZY, argv=argv))
    assert out == {"import": [], "exit": 0, "sweep": []}


def test_gates_and_fault_sweeps_leave_numpy_unloaded():
    argvs = [
        ["verify", "--nranks", "4"],
        ["cost", "--nranks", "4"],
        ["replay", "--nranks", "4", "--strict"],
        ["prove", "--collective", "bcast_opt", "--xval", "2:4"],
        [
            "sweep", "--machine", "hornet", "--nodes", "2", "--nranks", "8",
            "--sizes", "4KiB", "--jobs", "1", "--no-cache",
            "--fault-drop", "0.01",
        ],
    ]
    out = _probe(NUMPY_PROBE.format(argvs=argvs))
    assert out == [[argv[0], 0, False] for argv in argvs]


def test_analysis_stays_reachable_from_the_package():
    out = _probe(ACCESS_PROBE)
    assert out == {
        "before": False,
        "attr": "repro.analysis.replaygate",
        "star": "repro.analysis",
    }


def _loaded(argv, watched):
    """Exit code of ``repro argv`` (None for no command) and the
    *watched* modules, or modules under watched packages, it loaded."""
    return _probe(LOADED_PROBE.format(argv=argv, watched=watched))


def test_cli_import_loads_no_simulation_or_analysis_package():
    watched = [
        "repro.core", "repro.sim", "repro.mpi", "repro.collectives",
        "repro.analysis",
    ]
    assert _loaded([], watched) == [None, []]


def test_cost_table_loads_no_other_gate():
    watched = [
        "repro.analysis.modelcheck", "repro.analysis.certify",
        "repro.analysis.abstract", "repro.analysis.chaos",
        "repro.analysis.replaygate",
    ]
    assert _loaded(["cost", "--nranks", "4"], watched) == [0, []]


def test_verify_loads_no_sweep_stack_or_des_transport():
    watched = [
        "repro.core.sweep", "repro.core.executor", "repro.core.api",
        "repro.mpi.runtime", "repro.mpi.transport", "repro.mpi.reliable",
        "repro.analysis.costmodel", "repro.analysis.modelcheck",
    ]
    assert _loaded(["verify", "--nranks", "4"], watched) == [0, []]


def test_cost_table_loads_no_des_transport():
    watched = ["repro.mpi.runtime", "repro.mpi.transport", "repro.mpi.reliable"]
    assert _loaded(["cost", "--nranks", "4"], watched) == [0, []]


def test_model_checker_point_loads_no_cost_model_or_proof():
    argv = ["mc", "--collective", "bcast_opt", "--nranks", "3", "--nbytes", "1KiB"]
    watched = ["repro.analysis.costmodel", "repro.analysis.certify"]
    assert _loaded(argv, watched) == [0, []]


def test_replayed_sweep_loads_no_des_transport():
    argv = [
        "sweep", "--machine", "hornet", "--nodes", "2", "--nranks", "8",
        "--sizes", "4KiB,64KiB", "--jobs", "1", "--no-cache",
    ]
    watched = ["repro.mpi.runtime", "repro.mpi.transport", "repro.mpi.reliable"]
    assert _loaded(argv, watched) == [0, []]


def test_serial_sweep_loads_no_process_pool():
    argv = [
        "sweep", "--machine", "hornet", "--nodes", "2", "--nranks", "8",
        "--sizes", "4KiB,64KiB", "--jobs", "1", "--no-cache",
    ]
    watched = ["concurrent.futures", "multiprocessing"]
    assert _loaded(argv, watched) == [0, []]
