"""Traced child of the perf benchmark: one ``repro`` CLI invocation,
run in-process through ``repro.__main__.main(argv)``.

Usage::

    python benchmarks/perf/traced.py --out SUMMARY.json [--plain]
        [--warm-rerun] -- sweep --nranks 32 ...

Span wrappers are installed from outside the package around the public
entry point of each layer, so nothing under ``src/`` changes. Spans
(name, start, end, parent) and the counts taken at the same boundaries
stay in memory and are written to ``--out`` when the invocation ends;
``run.py`` turns them into per-layer metrics and a Chrome
trace. ``--plain`` installs no wrappers: the untraced reference whose
``main`` time the tracing overhead is measured against.

A layer whose entry point a later refactor removes is reported under
``missing`` instead of crashing the run.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from time import perf_counter

#: (span name, target). A target is ``module:function`` -- rebound in
#: every loaded ``repro`` module that imported the same function object
#: -- or ``module:Class.method``.
LAYERS = (
    ("core.sweep.run", "repro.core.sweep:Sweep.run"),
    ("core.api.simulate", "repro.core.api:simulate_bcast"),
    ("core.diskcache.get", "repro.core.diskcache:DiskCache.get"),
    ("core.diskcache.put", "repro.core.diskcache:DiskCache.put"),
    ("collectives.schedule.extract", "repro.collectives.schedule:extract_schedule"),
    ("sim.replay.compile", "repro.sim.replay:compile_schedule"),
    ("sim.replay.run", "repro.sim.replay:ReplayEngine.run"),
    ("mpi.runtime.run", "repro.mpi.runtime:Job.run"),
    ("artifacts.save", "repro.artifacts.store:ArtifactStore.save"),
)


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self.missing = []
        self._stack = []

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        t0 = self.t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter() - t0, None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter() - t0
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def install(self, name: str, target: str, on_result=None) -> None:
        module_name, _, attr = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(name)
            return
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = getattr(owner, "__dict__", {}).get(method)
            if not callable(original):
                self.missing.append(name)
                return
            setattr(owner, method, self.wrap(name, original, on_result))
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(name)
            return
        wrapper = self.wrap(name, original, on_result)
        # ``from x import f`` copies the binding: rebind it everywhere.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "repro":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _hooks(tracer: Tracer) -> dict:
    """Counts taken from each layer's return value."""

    def diskcache_get(rec):
        tracer.count("diskcache.gets")
        tracer.count("diskcache.hits", rec is not None)

    def extract(result):
        tracer.count("extract.sends", getattr(result, "transfers", 0))

    def replay(result):
        stats = getattr(result, "solver_stats", None)
        if stats is not None:
            tracer.count("replay.solver_s", getattr(stats, "solve_time_s", 0.0))
            tracer.count("replay.solves", getattr(stats, "solves", 0))
            tracer.count("replay.rounds", getattr(stats, "rounds", 0))

    def job(result):
        counters = getattr(result, "counters", None)
        tracer.count("job.retrans", getattr(counters, "retrans_messages", 0))
        tracer.count("job.timeouts", getattr(counters, "timeouts", 0))

    return {
        "core.diskcache.get": diskcache_get,
        "collectives.schedule.extract": extract,
        "sim.replay.run": replay,
        "mpi.runtime.run": job,
    }


def _memo_entries():
    """Entries in the replay solver's memo, or None when it has no counter."""
    replay = sys.modules.get("repro.sim.replay")
    entries = getattr(replay, "solve_memo_entries", None)
    return int(entries()) if callable(entries) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="summary JSON to write")
    parser.add_argument("--plain", action="store_true", help="install no wrappers")
    parser.add_argument(
        "--warm-rerun",
        action="store_true",
        help="time a second main(argv + ['--no-cache']) with the memos hot",
    )
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- repro argv")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer()
    start = perf_counter()
    import repro.__main__ as entry

    import_s = perf_counter() - start
    if not args.plain:
        hooks = _hooks(tracer)
        for name, target in LAYERS:
            tracer.install(name, target, hooks.get(name))
    memo_before = _memo_entries()
    start = perf_counter()
    code = entry.main(cli) if args.plain else tracer.wrap("main", entry.main)(cli)
    main_s = perf_counter() - start
    if memo_before is None:
        tracer.missing.append("sim.replay.memo")
    summary = {
        "argv": cli,
        "exit": code,
        "import_s": import_s,
        "main_s": main_s,
        "memo_entries": _memo_entries() - memo_before if memo_before is not None else 0,
        # Copies: the warm rerun's spans stay out of the summary.
        "spans": list(tracer.spans),
        "counts": dict(tracer.counts),
        "missing": tracer.missing,
    }
    if args.warm_rerun:
        start = perf_counter()
        summary["warm_exit"] = entry.main(cli + ["--no-cache"])
        summary["warm_rerun_s"] = perf_counter() - start
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
