"""Self-tests of the perf benchmark harness.

Run with ``python -m pytest benchmarks/perf -q`` (about 10 s).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_seed_makes_inputs_deterministically_and_seed0_is_the_paper_grid():
    for workload in run.WORKLOADS:
        for seed in (0, 1, 7):
            assert run.invocations(workload, seed) == run.invocations(workload, seed)
    assert run.rendezvous_sizes(0) == [2**k for k in range(19, 26)]
    assert run.eager_size(0) == 12288
    assert run.rendezvous_sizes(3) != run.rendezvous_sizes(4)
    for seed in range(1, 30):
        for k, n in zip(range(19, 26), run.rendezvous_sizes(seed)):
            assert 2**k <= n < 2**k * 1.25 and n % 64 == 0
        assert 8192 <= run.eager_size(seed) < 16384
    chaos = run.invocations("chaos-des", 5)[0].argv
    assert chaos[chaos.index("--fault-seed") + 1] == "5"


def test_benchmark_json_names_and_counts():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    workloads = [w["name"] for w in SPEC["workloads"]]
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert workloads == list(run.WORKLOADS)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = workloads + end_to_end + per_layer
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    assert per_layer == list(run.PER_LAYER)
    assert all(m["unit"] == run.PER_LAYER[m["name"]][0] for m in SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["main", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["a", 6.0, 7.0, 3],  # nested in a same-named span
        ["c", 8.5, 9.5, 3],  # overruns its parent: only [8.5, 9] is covered
    ]
    t = run.layer_times(spans)
    assert t["main"] == {"total": 10.0, "self": 3.0, "calls": 1}
    assert t["a"] == {"total": 7.0, "self": 2.0 + 2.5 + 1.0, "calls": 3}
    assert t["b"] == {"total": 1.0, "self": 1.0, "calls": 1}
    overlapping = [["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 3.0, 6.0, 0]]
    assert run.layer_times(overlapping)["p"]["self"] == 5.0


def test_a_gone_entry_point_is_reported_not_raised(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import traced

    tracer = traced.Tracer()
    tracer.install("gone.fn", "repro.core.api:no_such_function")
    tracer.install("gone.method", "repro.core.sweep:Sweep.no_such_method")
    tracer.install("gone.module", "repro.no_such_module:f")
    assert tracer.missing == ["gone.fn", "gone.method", "gone.module"]


def _records(nranks: int, sizes):
    return [
        {"algorithm": alg, "nranks": nranks, "nbytes": n, "root": 0,
         "time": 1.0 - 0.1 * tuned, "messages": run.total_transfers(nranks, tuned, n),
         "bytes_on_wire": 0, "intra_messages": 0, "inter_messages": 0,
         "retrans_messages": 0, "timeouts": 0}
        for n in sizes
        for alg, tuned in (("scatter_ring_native", False), ("scatter_ring_opt", True))
    ]


def test_checker_flags_a_bumped_message_count_and_a_digest_change():
    inv = run.invocations("rendezvous", 0, smoke=True)[0]
    records = _records(8, run.rendezvous_sizes(0)[-2:])
    assert run.check_sweep(inv, records) == []
    bumped = [dict(r) for r in records]
    bumped[1]["messages"] += 1
    problems = run.check_sweep(inv, bumped)
    assert len(problems) == 1 and "expected" in problems[0]
    slower = [dict(r) for r in records]
    slower[1]["time"] = 2.0
    assert len(run.check_sweep(inv, slower)) == 1
    assert run.records_digest(records) == run.records_digest(records[::-1])
    assert run.records_digest(records) != run.records_digest(bumped)


def test_smoke_runs_end_to_end_through_the_cli():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--smoke",
             "--workload", "rendezvous", "--trace", str(trace)],
            cwd=str(run.ROOT), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = _last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
        for m in SPEC[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["core.api.points"]["value"] == 4


@pytest.mark.parametrize("argv", [["--workload", "gates"], ["--smoke"]])
def test_fails_without_the_program(tmp_path, argv):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", *argv, "--seed", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
