"""Start-up stays lean: the CLI and a sweep never load the analysis
stack, networkx or the artifact store, which are imported on first use
only.

Each probe runs in a fresh interpreter, because the test process has
long since imported both.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAZY = ("networkx", "repro.analysis", "repro.artifacts")

SWEEP_PROBE = """
import json, sys
import repro.__main__ as entry
lazy = {lazy!r}
out = {{"import": [m for m in lazy if m in sys.modules]}}
out["exit"] = entry.main({argv!r})
out["sweep"] = [m for m in lazy if m in sys.modules]
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
        "--sizes", "4KiB,64KiB", "--jobs", "1",
    ]
    out = _probe(SWEEP_PROBE.format(lazy=LAZY, argv=argv))
    assert out == {"import": [], "exit": 0, "sweep": []}


def test_analysis_stays_reachable_from_the_package():
    out = _probe(ACCESS_PROBE)
    assert out == {
        "before": False,
        "attr": "repro.analysis.replaygate",
        "star": "repro.analysis",
    }
