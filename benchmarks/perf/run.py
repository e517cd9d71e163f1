"""The repo benchmark: cold one-shot ``python -m repro`` runs, end to end
and layer by layer.

Usage::

    python benchmarks/perf/run.py --workload rendezvous --seed 0 --seconds 25 --trace 0
    python benchmarks/perf/run.py --seed 0            # every workload, both modes
    python benchmarks/perf/run.py --workload gates --against benchmarks/perf/baseline.json
    python benchmarks/perf/run.py --smoke --workload rendezvous

Each workload is a fixed list of CLI invocations generated from
``--seed``; the program only ever sees those arguments. Every invocation
is a fresh process with ``--jobs 1``, every ``REPRO_*`` variable
stripped and a fresh, cold ``REPRO_CACHE_DIR``. One pass runs the whole
list; passes repeat, closed loop with one outstanding process, and
every record is checked (see ``check_sweep``). ``--seconds`` bounds a
workload's whole run, the set-up measurement included.

``--trace 0`` reports the end-to-end metrics: medians over passes.
``--trace 1`` runs each invocation as an untraced and then a traced
``traced.py`` child and reports the per-layer metrics of the traced
ones. The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Traces and per-run summaries
are written under ``benchmarks/results/perf/``.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import marshal
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results" / "perf"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("rendezvous", "eager-scale", "chaos-des", "gates")
GATES = ("verify", "mc", "cost", "replay", "chaos", "prove")
#: Fields a simulation determines; host telemetry (solver_time_s) is not one.
SIM_FIELDS = (
    "algorithm", "nranks", "nbytes", "root", "time", "messages",
    "bytes_on_wire", "intra_messages", "inter_messages",
    "retrans_messages", "timeouts",
)
CHILD_TIMEOUT_S = 60.0
SETUP_REPS = 5
MIN_PASSES = 3
#: The meter's niceness: it takes about a tenth of the CPU from the child.
METER_NICE = 10
#: CPU time of one meter chunk at which normalised seconds are expressed.
METER_REF_S = 0.002


@dataclass(frozen=True)
class Invocation:
    """One ``python -m repro`` command of a workload."""

    argv: Tuple[str, ...]
    sweep: bool = False  # writes records to check (via --artifact)
    fault_free: bool = True  # opt.time <= native.time must hold

    @property
    def points(self) -> int:
        """Operations this invocation stands for: sweep points, or 1 gate."""
        if not self.sweep:
            return 1
        return 2 * len(self.argv[self.argv.index("--sizes") + 1].split(","))


# -- workloads -------------------------------------------------------------
def _sweep(nranks: int, sizes: Sequence, fault_seed: Optional[int] = None) -> Invocation:
    argv = (
        "sweep", "--machine", "hornet", "--nodes", "16", "--nranks", str(nranks),
        "--sizes", ",".join(str(s) for s in sizes), "--jobs", "1",
    )
    if fault_seed is not None:
        argv += ("--fault-drop", "0.01", "--fault-seed", str(fault_seed))
    return Invocation(argv, sweep=True, fault_free=fault_seed is None)


def rendezvous_sizes(seed: int) -> List[int]:
    """Fig. 6(b) sizes 2^19..2^25 at seed 0; else 2^k(1+u), u ~ U[0, 0.25),
    rounded down to a multiple of 64."""
    if seed == 0:
        return [2**k for k in range(19, 26)]
    rng = random.Random(f"rendezvous:{seed}")
    return [int(2**k * (1 + 0.25 * rng.random())) // 64 * 64 for k in range(19, 26)]


def eager_size(seed: int) -> int:
    """12288 B (the first Fig. 7 size) at seed 0; else uniform in [8192, 16384)."""
    if seed == 0:
        return 12288
    return random.Random(f"eager-scale:{seed}").randrange(8192, 16384)


def invocations(workload: str, seed: int, smoke: bool = False) -> List[Invocation]:
    """The CLI commands of one pass of *workload*, generated from *seed*."""
    if workload == "rendezvous":
        sizes = rendezvous_sizes(seed)
        return [_sweep(8, sizes[-2:]) if smoke else _sweep(32, sizes)]
    if workload == "eager-scale":
        ranks = (9,) if smoke else (65, 129)
        return [_sweep(p, [eager_size(seed)]) for p in ranks]
    if workload == "chaos-des":
        sizes = ["12KiB"] if smoke else ["12KiB", "64KiB", "512KiB", "2MiB"]
        return [_sweep(9 if smoke else 65, sizes, fault_seed=seed)]
    if workload == "gates":
        if smoke:
            cmds = [["verify", "--nranks", "2,3"], ["mc", "--seed", str(seed)]]
        else:
            # Six process starts; the proof's cross-validation is most of
            # the time spent in the gates, the other five run one point.
            cmds = [
                ["verify", "--nranks", "2,3,4,5,7,8"],
                ["mc", "--grid", "--strict", "--seed", str(seed)],
                ["cost", "--nranks", "8"],
                ["replay", "--nranks", "8", "--strict"],
                ["chaos", "--nranks", "8", "--strict", "--seed", str(seed)],
                ["prove", "--all", "--strict", "--xval", "2:28"],
            ]
        return [Invocation(tuple(c)) for c in cmds]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


# -- children --------------------------------------------------------------
def child_env(cache_dir: Path, hash_seed: int) -> Dict[str, str]:
    """The user's environment minus every ``REPRO_*`` knob, with the
    package on the path and a cold cache of its own.

    String hashing is seeded per pass (pass *i* uses ``PYTHONHASHSEED=i``
    in every run): dict and set layouts alone move a process's wall time
    by about 10 %, so every run samples the same layouts.
    """
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k not in ("PYTHONPATH", "PYTHONHASHSEED")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


class _Message:
    """A message of the speed meter's toy event queue."""

    __slots__ = ("t", "src", "dst", "nbytes")

    def __init__(self, t: float, src: int, dst: int, nbytes: int):
        self.t, self.src, self.dst, self.nbytes = t, src, dst, nbytes

    def cost(self, bandwidth: float) -> float:
        return self.nbytes / bandwidth + 1e-6 * (self.src ^ self.dst)


_METER_DOC = {
    "ranks": list(range(40)),
    "sizes": {str(k): 2**k for k in range(10, 26)},
    "algorithm": "scatter_ring_opt",
}
_METER_SOURCE = "def f(a, b):\n    c = [x * b for x in a if x % 3]\n    return sum(c) / (len(c) or 1)\n"
_METER_TEXT = " ".join(f"rank{i}:send->{(i * 7) % 41} bytes={i * 4096}" for i in range(60))
_METER_PATTERN = re.compile(r"rank(\d+):send->(\d+) bytes=(\d+)")
_METER_MODULE = marshal.dumps(compile("".join(
    f"def f{i}(a, b={i}):\n    c = [x * b for x in a if x % {i + 2}]\n"
    f"    return {{'n': len(c), 'sum': sum(c), 'name': 'f{i}'}}\n"
    for i in range(240)
), "<meter>", "exec"))
_METER_ARRAY = np.linspace(1.0, 2.0, 64)


def meter_chunk() -> None:
    """A fixed chunk of interpreter work of many kinds, none of it from
    the program.

    How much a crowded CPU slows code down depends on the code, so no one
    loop tracks the program: over 42 rounds of the workloads' commands,
    the spread of their normalised CPU time was 2.6-2.7 % per process
    with a heap-and-dict loop or with object and text work alone, 4.8 %
    with loading code, rationals and small arrays alone, and 1.7 % with
    all three in these proportions.
    """
    _heap_and_dict()
    _objects_and_text()
    _objects_and_text()
    _code_rationals_arrays()


def _heap_and_dict() -> None:
    heap = [(0.0, 0)]
    rates: Dict[int, float] = {}
    for i in range(700):
        now, k = heapq.heappop(heap)
        key = (k * 7919) % 4093
        rates[key] = rates.get(key, 1.0) * 0.5 + 1.0 / (1 + i % 17)
        heapq.heappush(heap, (now + rates[key], key))
        if len(heap) < 64:
            heapq.heappush(heap, (now + 0.5, (k + 1) % 4093))


def _code_rationals_arrays() -> None:
    """Start-up and analysis work: unmarshalling code, exact rationals;
    and the solver's: numpy calls on small arrays."""
    marshal.loads(_METER_MODULE)
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, 2 * i + 1) * Fraction(3, i + 7)
        if acc > 5:
            acc -= acc.numerator // acc.denominator
    a = _METER_ARRAY
    for _ in range(8):
        r = np.minimum(a, a[::-1]) * 0.5
        c = np.cumsum(r[np.argsort(r, kind="stable")])
        a = a + float(c[-1]) * 1e-9


def _objects_and_text() -> None:
    """Objects and method calls, a heap of them, dicts, JSON, the
    compiler, a regex, sorting and formatting."""
    heap = []
    links: Dict[Tuple[int, int], float] = {}
    for i in range(300):
        msg = _Message(i * 0.5 % 17.0, i % 41, (i * 7) % 41, 4096 + i)
        key = (msg.src, msg.dst)
        links[key] = links.get(key, 0.0) + msg.cost(1.5e9)
        heapq.heappush(heap, (msg.t, i, msg))
    while heap:
        heapq.heappop(heap)
    json.loads(json.dumps(_METER_DOC))
    compile(_METER_SOURCE, "<meter>", "exec")
    sum(int(m[2]) for m in _METER_PATTERN.findall(_METER_TEXT))
    sorted(links.items(), key=lambda kv: (-kv[1], kv[0]))
    "".join(f"{k[0]:>4}{k[1]:>4}{v:12.6g}" for k, v in links.items())
    math.fsum(v * v for v in links.values())


class SpeedMeter(threading.Thread):
    """Measures the speed of the CPU a child runs on, while it runs.

    On a shared host one CPU's speed swings by up to 2x within a second,
    and the two CPUs swing apart, so a loop timed before and after a
    child misses what the child met. This thread runs meter chunks on
    the child's CPU for the child's whole life, at a niceness that leaves
    the child about nine tenths of the CPU; the scheduler interleaves the
    two every few milliseconds, so both see the same speeds. ``factor``
    rescales the child's CPU seconds to a CPU on which one chunk takes
    ``METER_REF_S``.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.chunks = 0
        self.cpu_s = 0.0

    def run(self) -> None:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), METER_NICE)
        start = thread_time()
        while True:  # at least one chunk, so even an instant child gets a factor
            meter_chunk()
            self.chunks += 1
            if self.done.is_set():
                break
        self.cpu_s = thread_time() - start

    def stop(self) -> float:
        """Stop metering; the normalisation factor."""
        self.done.set()
        self.join()
        return METER_REF_S * self.chunks / self.cpu_s


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float  # user + system CPU seconds of the child
    norm_s: float  # cpu_s at the reference speed
    rss_mb: float
    log: Path


def run_child(cmd: Sequence[str], env: Dict[str, str], log: Path) -> ChildResult:
    """Run one process to completion under a ``SpeedMeter``; its wall
    time, CPU time, normalised CPU time and peak RSS.

    ``os.wait4`` reports the rusage of exactly this child. A child that
    outlives ``CHILD_TIMEOUT_S`` is killed and fails.
    """
    with open(log, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(
            list(cmd), env=env, cwd=str(ROOT), stdout=out, stderr=subprocess.STDOUT
        )
        meter = SpeedMeter()
        meter.start()

        def kill(signum, frame):  # noqa: ARG001 - signal handler signature
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            factor = meter.stop()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    # ru_maxrss is KiB on Linux.
    return ChildResult(proc.returncode, wall, cpu, cpu * factor,
                       usage.ru_maxrss / 1024.0, log)


def measure_setup(tmp: Path, reps: int) -> Tuple[List[float], List[float]]:
    """Raw wall and normalised CPU times of fresh ``python -c "import
    repro.__main__"`` processes, after one untimed warm-up that fills the
    bytecode cache."""
    cmd = [sys.executable, "-c", "import repro.__main__"]
    raw, norm = [], []
    for i in range(reps + 1):
        res = run_child(cmd, child_env(tmp / "setup-cache", i), tmp / "setup.log")
        if res.code != 0:
            raise RuntimeError(
                f"`import repro.__main__` failed:\n{res.log.read_text(errors='replace')}"
            )
        if i:
            raw.append(res.wall_s)
            norm.append(res.norm_s)
    return raw, norm


# -- correctness -------------------------------------------------------------
def records_digest(records: Sequence[dict]) -> str:
    """SHA-256 over the simulated fields of *records*, order-independent."""
    rows = sorted(json.dumps([r.get(f) for f in SIM_FIELDS]) for r in records)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def total_transfers(nranks: int, tuned: bool, nbytes: int) -> int:
    """The paper's transfer-count arithmetic, from the package under test."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.core import total_transfers as count

    return count(nranks, tuned, nbytes)


def check_sweep(inv: Invocation, records: Sequence[dict]) -> List[str]:
    """Problems with one sweep's records; one entry per failed point.

    Every point must exist, carry the transfer count the paper's
    arithmetic predicts (``repro.core.total_transfers``), and on a
    fault-free grid the tuned ring may never be slower than the native.
    """
    problems = []
    if len(records) != inv.points:
        problems += ["missing records"] * max(inv.points - len(records), 1)
    by_point = {}
    for rec in records:
        tuned = rec["algorithm"] == "scatter_ring_opt"
        by_point[(rec["nbytes"], tuned)] = rec
        want = total_transfers(rec["nranks"], tuned, rec["nbytes"])
        if rec["messages"] != want:
            problems.append(
                f"{rec['algorithm']} P={rec['nranks']} n={rec['nbytes']}: "
                f"{rec['messages']} messages, expected {want}"
            )
    if inv.fault_free:
        for (nbytes, tuned), opt in sorted(by_point.items()):
            native = by_point.get((nbytes, False))
            if tuned and native is not None and opt["time"] > native["time"]:
                problems.append(
                    f"n={nbytes}: tuned {opt['time']!r}s slower than "
                    f"native {native['time']!r}s"
                )
    return problems


def read_records(artifact_dir: Path) -> List[dict]:
    paths = sorted(artifact_dir.glob("*.json"))
    if len(paths) != 1:
        raise ValueError(f"expected one artifact in {artifact_dir}, found {len(paths)}")
    return json.loads(paths[0].read_text(encoding="utf-8"))["records"]


class Checker:
    """Counts operations and failures across a run; pins digests.

    An invocation's digest must equal the seed-0 golden value (when one
    is pinned) and the digest of its first pass in this run, traced or
    not, so every pass measures the same program output.
    """

    def __init__(self, golden: Optional[Sequence[str]]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[int, str] = {}

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def check(self, idx: int, inv: Invocation, code: int, artifacts: Path,
              log: Path) -> None:
        self.attempted += inv.points
        if code != 0:
            tail = log.read_text(errors="replace")[-400:] if log.exists() else ""
            self.fail(inv.points, f"`{' '.join(inv.argv)}` exited {code}: {tail}")
            return
        if not inv.sweep:
            return
        try:
            records = read_records(artifacts)
            problems = check_sweep(inv, records)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.fail(inv.points, f"`{' '.join(inv.argv)}`: unreadable records: {exc!r}")
            return
        for why in problems:
            self.fail(1, why)
        digest = records_digest(records)
        expected = self.digests.setdefault(idx, digest)
        if self.golden is not None and idx < len(self.golden):
            expected = self.golden[idx]
        if digest != expected:
            self.fail(
                inv.points - min(len(problems), inv.points),
                f"invocation {idx}: records digest {digest[:16]} != {expected[:16]}",
            )


# -- spans and per-layer metrics -------------------------------------------
def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def layer_times(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``total`` seconds, ``self`` seconds and ``calls``.

    *spans* are ``[name, start, end, parent_index]``. A span's self time
    is its duration minus the part of its interval that its child spans
    cover. ``total`` skips spans nested in a same-named span, whose time
    the outer one already holds.
    """
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
        entry["calls"] += 1
        covered = _covered([
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(i, ())
        ])
        entry["self"] += (end - start) - covered
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["total"] += end - start
    return out


#: Per-layer metrics: name -> (unit, the traced.py layer the value needs;
#: a metric whose layer is gone reads null).
PER_LAYER = {
    "startup.import_s": ("s", None),
    "core.sweep.run_s": ("s", "core.sweep.run"),
    "core.sweep.self_s": ("s", "core.sweep.run"),
    "core.api.points": ("count", "core.api.simulate"),
    "core.api.self_s": ("s", "core.api.simulate"),
    "core.diskcache.get_s": ("s", "core.diskcache.get"),
    "core.diskcache.put_s": ("s", "core.diskcache.put"),
    "core.diskcache.hit_ratio": ("ratio", "core.diskcache.get"),
    "collectives.schedule.extract_s": ("s", "collectives.schedule.extract"),
    "collectives.schedule.extract_calls": ("count", "collectives.schedule.extract"),
    "collectives.schedule.us_per_send": ("us", "collectives.schedule.extract"),
    "sim.replay.compile_s": ("s", "sim.replay.compile"),
    "sim.replay.run_s": ("s", "sim.replay.run"),
    "sim.replay.solver_s": ("s", "sim.replay.run"),
    "sim.replay.frontier_s": ("s", "sim.replay.run"),
    "sim.replay.solves": ("count", "sim.replay.run"),
    "sim.replay.solver_rounds": ("count", "sim.replay.run"),
    "sim.replay.memo_entries": ("count", "sim.replay.memo"),
    "sim.replay.warm_rerun_s": ("s", None),
    "mpi.runtime.run_s": ("s", "mpi.runtime.run"),
    "mpi.reliable.retrans_messages": ("count", "mpi.runtime.run"),
    "mpi.reliable.timeouts": ("count", "mpi.runtime.run"),
    **{f"analysis.{gate}_s": ("s", None) for gate in GATES},
    "artifacts.save_s": ("s", "artifacts.save"),
    "trace.main_s": ("s", None),
    "trace.overhead_pct": ("%", None),
}


def layer_metrics(summaries: Sequence[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (one summary per invocation).

    Times are scaled by each child's ``speed_factor`` (its normalised CPU
    seconds per wall second, so the meter's share drops out too); counts
    are not.
    """
    spans_by_name: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    m = {name: 0.0 for name in PER_LAYER}
    for s in summaries:
        f = s["speed_factor"]
        for name, entry in layer_times(s["spans"]).items():
            acc = spans_by_name.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            acc["total"] += entry["total"] * f
            acc["self"] += entry["self"] * f
            acc["calls"] += entry["calls"]
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value * (f if key.endswith("_s") else 1)
        m["startup.import_s"] += s["import_s"] * f
        m["trace.main_s"] += s["main_s"] * f
        m["sim.replay.memo_entries"] += s["memo_entries"]
        m["sim.replay.warm_rerun_s"] += s.get("warm_rerun_s", 0.0) * f
        if s["argv"] and s["argv"][0] in GATES:
            m[f"analysis.{s['argv'][0]}_s"] += s["main_s"] * f

    def total(name):
        return spans_by_name.get(name, {}).get("total", 0.0)

    def own(name):
        return spans_by_name.get(name, {}).get("self", 0.0)

    def calls(name):
        return spans_by_name.get(name, {}).get("calls", 0)

    extract_s = total("collectives.schedule.extract")
    sends = counts.get("extract.sends", 0)
    gets = counts.get("diskcache.gets", 0)
    m.update({
        "core.sweep.run_s": total("core.sweep.run"),
        "core.sweep.self_s": own("core.sweep.run"),
        "core.api.points": calls("core.api.simulate"),
        "core.api.self_s": own("core.api.simulate"),
        "core.diskcache.get_s": total("core.diskcache.get"),
        "core.diskcache.put_s": total("core.diskcache.put"),
        "core.diskcache.hit_ratio": counts.get("diskcache.hits", 0) / gets if gets else 0.0,
        "collectives.schedule.extract_s": extract_s,
        "collectives.schedule.extract_calls": calls("collectives.schedule.extract"),
        "collectives.schedule.us_per_send": extract_s * 1e6 / sends if sends else 0.0,
        "sim.replay.compile_s": total("sim.replay.compile"),
        "sim.replay.run_s": total("sim.replay.run"),
        "sim.replay.solver_s": counts.get("replay.solver_s", 0.0),
        "sim.replay.frontier_s": total("sim.replay.run") - counts.get("replay.solver_s", 0.0),
        "sim.replay.solves": counts.get("replay.solves", 0),
        "sim.replay.solver_rounds": counts.get("replay.rounds", 0),
        "mpi.runtime.run_s": total("mpi.runtime.run"),
        "mpi.reliable.retrans_messages": counts.get("job.retrans", 0),
        "mpi.reliable.timeouts": counts.get("job.timeouts", 0),
        "artifacts.save_s": total("artifacts.save"),
    })
    return m


# -- passes ------------------------------------------------------------------
@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    norm_cpu_s: float = 0.0
    rss_mb: float = 0.0
    summaries: List[dict] = field(default_factory=list)
    loadavg: Tuple[float, float] = (0.0, 0.0)


def run_round(workload: str, invs: Sequence[Invocation], modes: Sequence[str],
              tmp: Path, checker: Checker, number: int) -> Dict[str, Pass]:
    """Cold round *number*: one pass of *invs* per mode -- ``cli``
    (python -m repro), ``plain`` or ``traced`` (traced.py children).
    Each invocation runs once per mode, back to back, so a traced child
    is paired with the untraced child just before it."""
    load_before = os.getloadavg()[0]
    passes = {mode: Pass() for mode in modes}
    for idx, inv in enumerate(invs):
        for mode in modes:
            work = tmp / f"{mode}{number}-{idx}"
            work.mkdir(parents=True)
            argv = list(inv.argv)
            if inv.sweep:
                argv += ["--artifact", str(work / "artifacts")]
            summary = work / "summary.json"
            if mode == "cli":
                cmd = [sys.executable, "-m", "repro", *argv]
            else:
                cmd = [sys.executable, str(HERE / "traced.py"), "--out", str(summary)]
                if mode == "plain":
                    cmd.append("--plain")
                elif workload == "rendezvous":
                    cmd.append("--warm-rerun")
                cmd += ["--", *argv]
            res = run_child(cmd, child_env(work / "cache", number), work / "out.log")
            code = res.code
            p = passes[mode]
            if mode != "cli" and code == 0:
                data = json.loads(summary.read_text(encoding="utf-8"))
                data["argv"] = list(inv.argv)
                data["speed_factor"] = res.norm_s / res.wall_s
                p.summaries.append(data)
                code = data["exit"] or data.get("warm_exit", 0)
            checker.check(idx, inv, code, work / "artifacts", res.log)
            p.wall_s += res.wall_s
            p.cpu_s += res.cpu_s
            p.norm_cpu_s += res.norm_s
            p.rss_mb = max(p.rss_mb, res.rss_mb)
            shutil.rmtree(work, ignore_errors=True)
    for p in passes.values():
        p.loadavg = (load_before, os.getloadavg()[0])
    return passes


def run_passes(workload: str, invs: Sequence[Invocation], modes: Sequence[str],
               deadline: float, tmp: Path, checker: Checker,
               min_rounds: int) -> Dict[str, List[Pass]]:
    """Closed loop: rounds until another would end past *deadline* (a
    ``perf_counter`` time), at least *min_rounds* of them."""
    passes: Dict[str, List[Pass]] = {mode: [] for mode in modes}
    rounds: List[float] = []
    while True:
        t = perf_counter()
        for mode, p in run_round(workload, invs, modes, tmp, checker,
                                 len(rounds)).items():
            passes[mode].append(p)
        rounds.append(perf_counter() - t)
        if len(rounds) >= min_rounds and perf_counter() + statistics.median(rounds) > deadline:
            return passes


# -- reporting ---------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def host_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def print_table(workload: str, rows: Dict[str, List[float]], units: Dict[str, str]) -> None:
    print(f"{workload}:")
    print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for name, values in rows.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<36} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>3}  {units[name]}")


def compare_against(path: Path, workload: str, metrics: Dict[str, dict],
                    spec: dict) -> int:
    """Print each metric's move against the committed baseline; flag any
    worse than its bound. Returns the number of flagged metrics."""
    base = json.loads(path.read_text(encoding="utf-8"))
    sets = base.get("workloads", {}).get(workload)
    if not sets:
        print(f"against {path}: no baseline for {workload}")
        return 0
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    flagged = 0
    print(f"against {path} (median of sets {', '.join(sorted(sets))}):")
    for name, entry in metrics.items():
        values = [v for s in sets.values() for v in s["metrics"].get(name, [])]
        traced = base.get("traced", {}).get(workload, {})
        if not values and traced.get(name) is None:
            continue
        ref = statistics.median(values) if values else traced[name]
        if entry["value"] is None:
            print(f"  {name:<36} {ref:>12.6g} -> null: its entry point is gone")
            continue
        delta = (entry["value"] - ref) / ref if ref else 0.0
        rule = bounds.get(name, {})
        worse = delta if rule.get("better") == "lower" else -delta
        flag = "bound" in rule and worse > rule["bound"]
        flagged += flag
        print(
            f"  {name:<36} {ref:>12.6g} -> {entry['value']:<12.6g} {delta:+8.2%}"
            + (f"  WORSE than bound {rule['bound']:.0%}" if flag else "")
        )
    return flagged


def measure(workload: str, seed: int, deadline: float, trace: bool, smoke: bool,
            tmp: Path, out_dir: Path) -> Tuple[Dict[str, dict], Checker, dict]:
    """One benchmark run of *workload*, set-up measurement included, that
    ends by *deadline* unless its minimum of passes takes longer; returns
    (metrics, checker, details)."""
    invs = invocations(workload, seed, smoke)
    golden = None
    if seed == 0 and not smoke and GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload)
    checker = Checker(golden)
    details: dict = {"workload": workload, "seed": seed, "trace": int(trace),
                     "argv": [list(i.argv) for i in invs]}
    missing: List[str] = []
    if not trace:
        raw_setup, setup = measure_setup(tmp, 1 if smoke else SETUP_REPS)
        passes = run_passes(workload, invs, ["cli"], deadline, tmp, checker,
                            1 if smoke else MIN_PASSES)["cli"]
        rows = {
            "norm_cpu_s": [p.norm_cpu_s for p in passes],
            "setup_s": setup,
            "peak_rss_mb": [p.rss_mb for p in passes],
        }
        units = {"norm_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        details["raw"] = {
            "raw_wall_s": [p.wall_s for p in passes],
            "raw_cpu_s": [p.cpu_s for p in passes],
            "raw_setup_wall_s": raw_setup,
        }
        details["loadavg"] = [p.loadavg for p in passes]
    else:
        passes = run_passes(workload, invs, ["plain", "traced"], deadline, tmp,
                            checker, 1)
        traced = [layer_metrics(p.summaries) for p in passes["traced"]]
        rows = {name: [m[name] for m in traced] for name in PER_LAYER}
        # Each traced child against the untraced child just before it; the
        # median over these pairs shrugs off a host burst that hits one.
        rows["trace.overhead_pct"] = [
            100.0 * (t["main_s"] * t["speed_factor"]
                     / (u["main_s"] * u["speed_factor"]) - 1)
            for tp, up in zip(passes["traced"], passes["plain"])
            for t, u in zip(tp.summaries, up.summaries)
        ] or [0.0]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        absent = {n for p in passes["traced"] for s in p.summaries for n in s["missing"]}
        missing = [m for m, (_, layer) in PER_LAYER.items() if layer in absent]
        details["missing"] = missing
        details["loadavg"] = [p.loadavg for p in passes["traced"]]
        write_chrome_trace(out_dir / f"trace-{workload}-seed{seed}.json",
                           workload, passes["traced"])
    metrics = {
        name: {"value": None if name in missing else quartiles(values)[1],
               "unit": units[name]}
        for name, values in rows.items()
    }
    details["rows"] = rows
    details["digests"] = checker.digests
    return metrics, checker, details


def write_chrome_trace(path: Path, workload: str, passes: Sequence[Pass]) -> None:
    """Chrome trace-event JSON of every traced pass (pid = pass, tid = invocation)."""
    events = []
    for p_idx, p in enumerate(passes):
        for i_idx, s in enumerate(p.summaries):
            for name, start, end, parent in s["spans"]:
                events.append({
                    "name": name, "ph": "X", "pid": p_idx, "tid": i_idx,
                    "ts": start * 1e6, "dur": (end - start) * 1e6,
                    "args": {
                        "parent": s["spans"][parent][0] if parent >= 0 else None,
                        "workload": workload,
                        "command": s["argv"][0] if s["argv"] else None,
                    },
                })
    path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: traced per-layer metrics "
                        "(default: 0 for one workload, both for all)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (P=8/9), one pass: a harness self-test")
    parser.add_argument("--against", type=Path, default=None, metavar="BASELINE",
                        help="print each metric's move against a committed baseline")
    args = parser.parse_args(argv)
    start = perf_counter()  # --seconds bounds each workload's run from here

    # A terminated run still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and (inherited) every child and thread: the
    # speed meter then shares the CPU the children run on, and the program
    # runs on the one-CPU host its speedups are claimed for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke:
        seconds = 0.0
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None:
        modes = [bool(args.trace)]
    else:
        modes = [False] if args.workload else [False, True]

    out_dir = RESULTS / "smoke" if args.smoke else RESULTS
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    results: Dict[str, Dict[str, dict]] = {}
    attempted = failed = flagged = 0
    host = host_fingerprint()
    print(f"host: {json.dumps(host)}")
    try:
        for trace in modes:
            for workload in workloads:
                metrics, checker, details = measure(
                    workload, args.seed, start + seconds, trace, args.smoke, tmp, out_dir
                )
                attempted += checker.attempted
                failed += checker.failed
                units = {k: v["unit"] for k, v in metrics.items()}
                raw = details.get("raw", {})
                units.update(dict.fromkeys(raw, "s"))
                print_table(f"{workload} (seed {args.seed}, trace {int(trace)})",
                            {**details["rows"], **raw}, units)
                print(f"  digests: {json.dumps({k: v[:16] for k, v in checker.digests.items()})}")
                load = [x for pair in details["loadavg"] for x in pair]
                print(f"  loadavg: {load[0]:.2f} before, {load[-1]:.2f} after, "
                      f"{max(load):.2f} max over {len(details['loadavg'])} passes")
                if details.get("missing"):
                    print(f"  entry points gone, these read null: {details['missing']}")
                for why in checker.problems:
                    print(f"  FAIL {why}")
                if args.against is not None:
                    flagged += compare_against(args.against, workload, metrics, spec)
                details.update(host=host, attempted=checker.attempted,
                               failed=checker.failed, problems=checker.problems)
                out = out_dir / f"{workload}-seed{args.seed}-trace{int(trace)}.json"
                out.write_text(json.dumps(details, indent=1), encoding="utf-8")
                results.setdefault(workload, {}).update(metrics)
                start = perf_counter()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if flagged:
        print(f"{flagged} metric(s) worse than their bound")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": results[workloads[0]] if args.workload else results,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
