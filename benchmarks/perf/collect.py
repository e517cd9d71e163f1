"""Measure the benchmark's own steadiness and record a baseline.

Usage::

    python benchmarks/perf/collect.py --out benchmarks/perf/baseline.json

Runs ``BENCHMARK.json``'s command once per (set, run, workload): two
sets of ten runs, each run with its own ``--seed`` (set A seeds 0..9,
set B 10..19), the workloads interleaved so host drift hits every one
alike. For each end-to-end metric it prints the spread of the per-run
values -- (q3 - q1) / median with ``statistics.quantiles(values, n=4)``
-- and how far set B's median moved from set A's, both against the
metric's bound. A spread under a third of the bound is ``ok``, one
within the bound ``unresolved``; a wider spread or a move past the bound
fails. One ``--trace 1`` run per workload at seed 0 adds the per-layer
numbers. The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from run import BENCHMARK, ROOT, host_fingerprint, quartiles

RUNS = 10
SETS = ("A", "B")


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] in ("python", "python3") else argv[0]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=300)
    elapsed = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="baseline JSON to write")
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    data = {w: {s: {"seeds": [], "metrics": {m: [] for m in e2e}, "elapsed_s": []}
                for s in SETS} for w in workloads}
    failures = 0
    for s_idx, set_name in enumerate(SETS):
        for i in range(RUNS):
            seed = s_idx * RUNS + i
            for w in workloads:
                res = run_once(spec["command"], w, seed, spec["run_seconds"], 0)
                entry = data[w][set_name]
                entry["seeds"].append(seed)
                entry["elapsed_s"].append(round(res["elapsed_s"], 2))
                for m in e2e:
                    entry["metrics"][m].append(res["metrics"][m]["value"])
                failures += res["failed"] + (not res["correct"])
                print(f"set {set_name} seed {seed:>3} {w:<12} "
                      f"{res['elapsed_s']:6.1f}s  "
                      + "  ".join(f"{m}={res['metrics'][m]['value']:.4g}" for m in e2e),
                      flush=True)

    print(f"\n{'workload':<12} {'metric':<12} "
          + " ".join(f"{'spread ' + s:>9}" for s in SETS)
          + f" {'move B':>8}  bound  verdict")
    ok = True
    for w in workloads:
        for m, rule in e2e.items():
            sums = [summarize(data[w][s]["metrics"][m]) for s in SETS]
            for s, summary in zip(SETS, sums):
                data[w][s].setdefault("summary", {})[m] = summary
            move = (sums[1]["median"] - sums[0]["median"]) / sums[0]["median"]
            worse = move if rule["better"] == "lower" else -move
            bound = rule["bound"]
            spread = max(x["spread"] for x in sums)
            if worse > bound or spread > bound:
                verdict, ok = "FAIL", False
            else:
                verdict = "ok" if spread < bound / 3 else "unresolved"
            print(f"{w:<12} {m:<12} "
                  + " ".join(f"{x['spread']:>9.2%}" for x in sums)
                  + f" {move:>+8.2%}  {bound:>5.0%}  {verdict}")
    elapsed = [t for w in workloads for s in SETS for t in data[w][s]["elapsed_s"]]
    print(f"\nrun time: median {statistics.median(elapsed):.1f}s, max {max(elapsed):.1f}s; "
          f"failures: {failures}")

    baseline = {
        "date": datetime.now(timezone.utc).date().isoformat(),
        "host": host_fingerprint(),
        "run_seconds": spec["run_seconds"],
        "workloads": data,
        "traced": {},
    }
    for w in workloads:
        res = run_once(spec["command"], w, 0, spec["run_seconds"], 1)
        baseline["traced"][w] = {k: v["value"] for k, v in res["metrics"].items()}
        baseline["traced"][w]["elapsed_s"] = round(res["elapsed_s"], 2)
        failures += res["failed"] + (not res["correct"])
    args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if ok and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
