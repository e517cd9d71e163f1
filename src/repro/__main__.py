"""Command-line interface: ``python -m repro <command> ...``.

Commands cover the common workflows without writing a script:

* ``compare`` — native vs tuned broadcast at one point;
* ``sweep``   — a bandwidth-vs-size table (one Figure-6/8-style panel);
* ``figure``  — run one of the paper's figure grids end to end;
* ``traffic`` — Section IV transfer-count arithmetic for a grid of P;
* ``validate``— data-checked run of every broadcast algorithm;
* ``verify``  — static schedule verification: chunk provenance,
  redundancy counts (``S - P``), rendezvous deadlock, and the premise
  that the one extracted match order is the only one (no
  ``ANY_SOURCE`` receive);
* ``cost``    — static α-β/LogGP cost table per collective; ``--grid``
  runs the full sim-differential gate (``--strict`` for nonzero exit);
* ``chaos``   — fault-injection differential gate: collectives run on
  the reliable (ARQ) transport under seeded fault plans and must
  deliver bit-identical payloads or fail with a typed dead-link error;
  ``--grid`` covers the whole registry (``--strict`` for nonzero exit);
* ``replay``  — vectorized-replay differential gate: the schedule
  replay engine must reproduce the DES bitwise (makespan, per-rank
  finish times, every wire counter); single point by default,
  ``--grid`` covers the registry (``--strict`` for nonzero exit);
* ``audit``   — re-execute a stored run artifact and diff it bitwise
  against the recorded results (``--artifact`` on ``sweep``/``verify``/
  ``cost``/``chaos``/``replay``/``mc``/``prove`` records one);
* ``bench-report`` — print every ``BENCH_*.json`` performance
  trajectory file as one table;
* ``trace``   — simulate one collective with tracing and report the
  critical path (``--critical-path``) or export a Chrome trace
  (``--chrome out.json``);
* ``prove``   — parametric certificate checker: discharges each
  registry schedule's inductive ownership invariant symbolically in P
  (exact rational arithmetic, valid for **all** P >= 2), derives the
  paper's transfer-count theorems as corollaries, and cross-validates
  every certificate against concrete provenance at P in [2, 64];
  uncertified collectives must carry an explicit waiver;
* ``lint``    — AST determinism lint over the simulation core;
* ``cache``   — inspect, clear, or checksum-verify (``--fsck``) the
  persistent sweep-result cache.

Every analysis subcommand (``verify``/``cost``/``chaos``/``replay``/
``mc``/``prove``/``lint``) follows one exit-code convention: **0** all
checks passed, **1** at least one violation/failed obligation (for the
differential gates, only under ``--strict``), **2** configuration or
usage error (unknown collective, a P it does not support, a root
outside [0, P), malformed ``--nranks``/``--nbytes``, missing file).
Set ``REPRO_GATE_TIMES=path.json`` to append each subcommand's wall
time to a ``BENCH_``-style JSON that ``bench-report`` renders alongside
the performance trajectories.

Each gate builds its recipe (the dict an artifact stores as
``config``) once and runs it in-process through
:func:`repro.artifacts.audit.run_gate`, the function ``repro audit``
re-runs recorded artifacts through; ``--artifact`` freezes that recipe.

``sweep`` and ``figure`` accept ``--jobs N`` to fan points out over N
worker processes (``0`` = one per CPU) and use the on-disk result cache
by default (``--no-cache`` bypasses it, ``--cache-dir`` relocates it).
A cache hit is the warm path: a repeated point is read back, not
simulated again.

Examples::

    python -m repro compare --nranks 64 --nbytes 1MiB
    python -m repro sweep --nranks 129 --sizes 12KiB,64KiB,512KiB,1MiB --jobs 4
    python -m repro figure --id fig6b --jobs 0
    python -m repro traffic --procs 8,10,16,64
    python -m repro verify --collective bcast_native --nranks 8
    python -m repro verify --nranks 2,5,8,10,16 --json
    python -m repro cost --nranks 8 --nbytes 1MiB
    python -m repro cost --grid --strict
    python -m repro chaos --grid --strict
    python -m repro chaos --collective bcast_opt --nranks 8 --seed 7
    python -m repro replay --grid --strict
    python -m repro replay --collective bcast_opt --nranks 129 --nbytes 12KiB
    python -m repro bench-report
    python -m repro compare --fault-drop 0.1 --chaos-stats
    python -m repro trace --collective bcast_opt --nranks 8 --critical-path
    python -m repro prove --all --strict
    python -m repro prove --collective bcast_opt --json
    python -m repro lint
    python -m repro cache --clear
    python -m repro cache --fsck --repair
    python -m repro sweep --nranks 8 --sizes 64KiB --artifact
    python -m repro audit sweep-0123abcd4567
"""

from __future__ import annotations

import argparse
import sys

from .machine import hornet, ideal, laki
from .util import Table

_PRESETS = {"hornet": hornet, "laki": laki, "ideal": ideal}


def _spec(args, nranks=None):
    """The machine preset *args* select. With *nranks*, the machine is
    built once for that many ranks first, so one the run cannot use is
    a usage error (exit 2), not a failure mid-run."""
    from .errors import ConfigurationError, MachineError

    if args.nodes is not None and args.nodes < 1:
        raise ConfigurationError(f"node count must be >= 1, got {args.nodes}")
    factory = _PRESETS[args.machine]
    spec = factory() if args.nodes is None else factory(nodes=args.nodes)
    if nranks is not None:
        from .machine import Machine

        try:
            Machine(spec, nranks, getattr(args, "placement", "blocked"))
        except MachineError as exc:
            raise ConfigurationError(str(exc)) from None
    return spec


def _parse_ranks(text: str) -> list:
    """Parse a ``2,5,8``-style rank list; usage errors exit 2."""
    from .errors import ConfigurationError

    try:
        ranks = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigurationError(f"cannot parse process-count list: {text!r}")
    if not ranks or any(r < 1 for r in ranks):
        raise ConfigurationError(f"process counts must be >= 1: {text!r}")
    return ranks


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--machine",
        choices=sorted(_PRESETS),
        default="hornet",
        help="machine preset (default: hornet)",
    )
    p.add_argument("--nodes", type=int, default=None, help="override node count")
    p.add_argument(
        "--placement",
        choices=["blocked", "round_robin"],
        default="blocked",
        help="rank placement policy",
    )


def _solver_stats_table(records) -> Table:
    """Fluid-solver telemetry rows for a set of RunRecords."""
    table = Table(
        ["algorithm", "P", "solves", "rounds", "components", "max comp", "solve ms"],
        formats=[None, None, None, None, None, None, ".2f"],
        title=f"solver telemetry (mode: {records[0].solver_mode or 'n/a'})",
    )
    for rec in records:
        table.add_row(
            rec.algorithm,
            rec.nranks,
            rec.solver_solves,
            rec.solver_rounds,
            rec.solver_components,
            rec.solver_max_component,
            rec.solver_time_s * 1e3,
        )
    return table


def _chaos_stats_table(records) -> Table:
    """Reliable-transport telemetry rows for a set of RunRecords."""
    table = Table(
        ["algorithm", "P", "drops", "retrans", "retrans B", "ACKs",
         "ACK B", "timeouts"],
        title="chaos telemetry (injected faults / ARQ recovery traffic)",
    )
    for rec in records:
        table.add_row(
            rec.algorithm,
            rec.nranks,
            rec.drops_injected,
            rec.retrans_messages,
            rec.retrans_bytes,
            rec.ack_messages,
            rec.ack_bytes,
            rec.timeouts,
        )
    return table


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fault-drop",
        type=float,
        default=0.0,
        metavar="P",
        help="per-message drop probability (enables the reliable transport)",
    )
    p.add_argument(
        "--fault-dup",
        type=float,
        default=0.0,
        metavar="P",
        help="per-message duplication probability",
    )
    p.add_argument(
        "--fault-corrupt",
        type=float,
        default=0.0,
        metavar="P",
        help="per-message corruption probability",
    )
    p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="fault-plan seed (default: 0)",
    )


def _faults(args):
    from .sim import FaultPlan

    if not (args.fault_drop or args.fault_dup or args.fault_corrupt):
        return None
    return FaultPlan.uniform(
        seed=args.fault_seed,
        drop_p=args.fault_drop,
        dup_p=args.fault_dup,
        corrupt_p=args.fault_corrupt,
        name="cli",
    )


def _check_nranks(nranks: int) -> None:
    """Raise ConfigurationError (exit 2) for a process count below 1."""
    from .errors import ConfigurationError

    if nranks < 1:
        raise ConfigurationError(f"process count must be >= 1, got {nranks}")


def cmd_compare(args) -> int:
    from .core import compare_bcast

    _check_nranks(args.nranks)
    cmp = compare_bcast(
        _spec(args, args.nranks),
        nranks=args.nranks,
        nbytes=args.nbytes,
        placement=args.placement,
        faults=_faults(args),
    )
    print(cmp.describe())
    if args.solver_stats:
        print(_solver_stats_table([cmp.native, cmp.opt]))
    if args.chaos_stats:
        print(_chaos_stats_table([cmp.native, cmp.opt]))
    return 0


def _add_exec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (1=serial, 0=all CPUs)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent on-disk result cache",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )


def _exec_cache(args):
    from .core import DiskCache

    return None if args.no_cache else DiskCache(args.cache_dir)


def _add_artifact_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--artifact",
        nargs="?",
        const="auto",
        default=None,
        metavar="DIR",
        help=(
            "persist a replayable run artifact (bare --artifact uses "
            "$REPRO_ARTIFACTS or <cache-dir>/artifacts; `repro audit` "
            "re-executes and diffs it bitwise)"
        ),
    )


def _artifact_requested(args) -> bool:
    """``--artifact [DIR]`` or a non-empty ``REPRO_ARTIFACTS``."""
    import os

    return getattr(args, "artifact", None) is not None or bool(
        os.environ.get("REPRO_ARTIFACTS", "").strip()
    )


def _persist_artifact(args, kind: str, config: dict, report) -> None:
    """Freeze one completed run into the artifact store when asked.

    Enabled by :func:`_artifact_requested`; a no-op otherwise, so the
    default CLI paths stay write-free. The notice goes to stderr, so
    ``--json`` output on stdout stays parseable.
    """
    if not _artifact_requested(args):
        return
    from .artifacts import ArtifactStore, RunArtifact
    from .artifacts.audit import payload

    dest = getattr(args, "artifact", None)
    store = ArtifactStore(None if dest in (None, "auto") else dest)
    path = store.save(RunArtifact.create(kind, config, payload(report)))
    print(f"artifact: {path}", file=sys.stderr)


def _run_recipe(args, kind: str, recipe: dict, progress=None):
    """Run a gate's recipe through the table ``repro audit`` re-runs,
    freeze it when asked, and return the gate's report."""
    from .artifacts.audit import run_gate

    report = run_gate(kind, recipe, progress)
    _persist_artifact(args, kind, recipe, report)
    return report


def _check_point(
    collective: str, nranks: int, root: int = 0, allow_all: bool = False
) -> None:
    """Raise ConfigurationError (exit 2) unless *collective* is known,
    supports P=*nranks* and 0 <= *root* < P; with *allow_all*, ``all``
    names every collective that supports P."""
    from .analysis.verify import REGISTRY
    from .errors import ConfigurationError

    if allow_all and collective == "all":
        supported = nranks >= 1
    elif collective in REGISTRY:
        supported = REGISTRY[collective].supports(nranks)
    else:
        raise ConfigurationError(
            f"unknown collective {collective!r}; known: {sorted(REGISTRY)}"
        )
    if not supported:
        raise ConfigurationError(f"{collective!r} does not support P={nranks}")
    if not 0 <= root < nranks:
        raise ConfigurationError(f"root {root} is outside [0, {nranks})")


def cmd_sweep(args) -> int:
    from .core import Sweep

    _check_nranks(args.nranks)
    sizes = args.sizes.split(",")
    sweep = Sweep(
        _spec(args, args.nranks),
        sizes=sizes,
        ranks=[args.nranks],
        algorithms=["scatter_ring_native", "scatter_ring_opt"],
        placement=args.placement,
        faults=_faults(args),
    )
    cache = _exec_cache(args)
    records = sweep.run(jobs=args.jobs, cache=cache)
    print(
        sweep.to_table(
            args.nranks,
            "scatter_ring_native",
            "scatter_ring_opt",
            title=f"np={args.nranks} on {args.machine}",
        )
    )
    if args.solver_stats:
        print(_solver_stats_table(records))
    if args.chaos_stats:
        print(_chaos_stats_table(records))
    if cache is not None:
        print(cache.stats().describe())
    if not _artifact_requested(args):
        return 0
    from .artifacts import audit as _recipe

    _persist_artifact(
        args,
        "sweep",
        {
            "spec": _recipe.encode_spec(sweep.spec),
            "points": _recipe.encode_points(sweep.points()),
            "root": sweep.root,
            "placement": sweep.placement,
            "faults": _recipe.encode_faults(sweep.faults),
        },
        records,
    )
    return 0


def cmd_figure(args) -> int:
    from .bench import (
        fig6,
        fig7,
        fig8,
        render_bandwidth_table,
        render_plot,
        render_speedup_table,
    )

    factories = {
        "fig6a": lambda: fig6("a"),
        "fig6b": lambda: fig6("b"),
        "fig6c": lambda: fig6("c"),
        "fig7": fig7,
        "fig8": fig8,
    }
    exp = factories[args.id]()
    cache = _exec_cache(args)
    exp.run(jobs=args.jobs, cache=cache)
    if args.id == "fig7":
        print(render_speedup_table(exp))
    else:
        nranks = exp.ranks_axis[0]
        print(render_bandwidth_table(exp, nranks))
        print(render_plot(exp, nranks))
    if cache is not None:
        print(cache.stats().describe())
    return 0


def cmd_cache(args) -> int:
    from .core import DiskCache

    cache = DiskCache(args.cache_dir)
    if args.fsck or args.repair:
        report = cache.fsck(repair=args.repair)
        print(report.describe())
        return 0 if report.ok or args.repair else 1
    if args.clear:
        removed = cache.invalidate()
        print(f"cleared {removed} cached record(s) from {cache.dir}")
    else:
        shards = (
            len(list(cache.shard_dir.glob("*.jsonl")))
            if cache.shard_dir.is_dir()
            else 0
        )
        print(f"{cache.dir}: {len(cache)} record(s) in {shards} shard(s)")
    return 0


def cmd_traffic(args) -> int:
    from .core import (
        measure_traffic,
        ring_transfers_native,
        ring_transfers_tuned,
        transfers_saved,
    )

    procs = _parse_ranks(args.procs)
    table = Table(
        ["P", "native", "tuned", "saved", "measured tuned"],
        title="Ring-allgather transfers (closed form vs schedule)",
    )
    for P in procs:
        measured = measure_traffic("scatter_ring_opt", P, 1024 * P).ring_transfers
        table.add_row(
            P,
            ring_transfers_native(P),
            ring_transfers_tuned(P),
            transfers_saved(P),
            measured,
        )
    print(table)
    return 0


def cmd_validate(args) -> int:
    from .collectives import ALGORITHMS

    _check_nranks(args.nranks)
    spec = _spec(args, args.nranks)
    table = Table(
        ["algorithm", "time (us)", "messages", "data"],
        formats=[None, ".1f", None, None],
        title=f"validated broadcasts: np={args.nranks}, {args.nbytes}, root={args.root}",
    )
    from .core import simulate_bcast
    from .util import is_power_of_two as _pof2

    failures = 0
    for name in sorted(ALGORITHMS):
        if name == "scatter_rdbl" and not _pof2(args.nranks):
            table.add_row(name, None, None, "skipped (needs pof2)")
            continue
        try:
            rec = simulate_bcast(
                spec,
                args.nranks,
                args.nbytes,
                algorithm=name,
                root=args.root,
                placement=args.placement,
                validate=True,
            )
            table.add_row(name, rec.time * 1e6, rec.messages, "OK")
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures += 1
            table.add_row(name, None, None, f"FAILED: {exc}")
    print(table)
    return 1 if failures else 0


def cmd_verify(args) -> int:
    import json as _json

    from .util import parse_size

    nbytes = parse_size(args.nbytes)
    ranks = _parse_ranks(args.nranks)
    for nranks in ranks:
        _check_point(args.collective, nranks, args.root, allow_all=True)
    recipe = {
        "collective": args.collective,
        "ranks": ranks,
        "nbytes": nbytes,
        "root": args.root,
    }
    reports = _run_recipe(args, "verify", recipe)
    failed = sum(0 if r.ok else 1 for r in reports)
    if args.json:
        print(_json.dumps([r.to_dict() for r in reports], indent=2))
        return 1 if failed else 0
    table = Table(
        ["collective", "P", "transfers", "redundant", "expected",
         "rendezvous", "verdict"],
        title=f"static schedule verification (nbytes={nbytes}, root={args.root})",
    )
    for r in reports:
        table.add_row(
            r.collective,
            r.nranks,
            r.transfers,
            r.redundant_count if r.tracked else "-",
            r.expected_redundant if r.expected_redundant is not None else "-",
            "-" if r.rendezvous is None
            else ("DEADLOCK" if r.rendezvous.deadlocked else "safe"),
            "OK" if r.ok else "FAIL",
        )
    print(table)
    for r in reports:
        if not r.ok:
            print()
            print(r.describe())
    print(f"\n{len(reports) - failed}/{len(reports)} schedule(s) verified")
    return 1 if failed else 0


def cmd_mc(args) -> int:
    import json as _json

    from .analysis.modelcheck import check_collective
    from .sim.faults import FaultPlan
    from .util import parse_size

    nbytes = parse_size(args.nbytes)
    if args.grid:
        report = _run_recipe(
            args,
            "mc",
            {"nbytes": nbytes, "max_states": args.max_states, "seed": args.seed},
        )
        if args.json:
            print(_json.dumps(report.to_dict(), indent=2))
        else:
            table = Table(
                ["collective", "P", "plan", "mode", "states", "execs",
                 "terminals", "status"],
                title=(
                    f"match-order model checking (nbytes={nbytes}, "
                    f"max_states={args.max_states}, seed={args.seed})"
                ),
            )
            for c in report.checks:
                table.add_row(
                    c.collective, c.nranks, c.plan, c.mode, c.states,
                    c.executions, c.terminals, c.status.upper(),
                )
            print(table)
            for c in report.failures:
                if c.status == "fail":
                    print(
                        f"  FAIL {c.collective} P={c.nranks} "
                        f"plan={c.plan}: {c.detail}"
                    )
            print(report.describe().splitlines()[-1])
        failed = any(c.status == "fail" for c in report.checks)
        incomplete = any(c.status == "incomplete" for c in report.checks)
        return 1 if failed or (args.strict and incomplete) else 0
    faults = None
    if args.drop_p or args.dup_p or args.corrupt_p:
        faults = FaultPlan.uniform(
            seed=args.seed,
            drop_p=args.drop_p,
            dup_p=args.dup_p,
            corrupt_p=args.corrupt_p,
            name="cli",
        )
    reports = []
    for nranks in _parse_ranks(args.nranks):
        _check_point(args.collective, nranks, args.root)
        reports.append(
            check_collective(
                args.collective,
                nranks,
                nbytes=nbytes,
                root=args.root,
                mode="naive" if args.naive else "dpor",
                max_states=args.max_states,
                faults=faults,
                max_attempts=args.max_attempts,
            )
        )
    if args.json:
        print(_json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.describe())
    failed = any(not r.ok for r in reports)
    incomplete = any(not r.complete for r in reports)
    return 1 if failed or (args.strict and incomplete) else 0


def cmd_cost(args) -> int:
    import json as _json

    from .analysis.costmodel import analyze_collective
    from .analysis.verify import verifiable_collectives
    from .util import parse_size

    # The gate's band guarantees are calibrated against the contention-free
    # ideal preset (the spec the bound provably tracks); the per-collective
    # table defaults to hornet like every other simulation command.
    if args.machine is None:
        args.machine = "ideal" if args.grid else "hornet"
    if args.grid:
        from .artifacts.audit import encode_spec

        report = _run_recipe(
            args,
            "cost",
            {
                "spec": encode_spec(_spec(args)),
                "placement": args.placement,
                "band": args.band,
            },
            progress=None if args.json else print,
        )
        if args.json:
            print(_json.dumps(report.to_dict(), indent=2))
        else:
            print(report.describe())
        return (1 if not report.ok else 0) if args.strict else 0

    nbytes = parse_size(args.nbytes)
    _check_point(args.collective, args.nranks, args.root, allow_all=True)
    spec = _spec(args, args.nranks)
    if args.collective == "all":
        names = verifiable_collectives(args.nranks)
    else:
        names = [args.collective]
    reports = [
        analyze_collective(
            name,
            args.nranks,
            nbytes,
            root=args.root,
            spec=spec,
            placement=args.placement,
        )
        for name in names
    ]
    if args.json:
        print(_json.dumps([r.to_dict() for r in reports], indent=2))
        return 0
    table = Table(
        ["collective", "transfers", "bytes", "rounds", "t_chain us",
         "t_link us", "t_bound us", "busiest link"],
        formats=[None, None, None, None, ".2f", ".2f", ".2f", None],
        title=(
            f"static cost model: P={args.nranks}, nbytes={nbytes}, "
            f"root={args.root} on {spec.name} ({args.placement})"
        ),
    )
    for r in reports:
        busiest = r.busiest_link
        table.add_row(
            r.collective,
            r.transfers,
            r.total_bytes,
            r.rounds,
            r.t_chain * 1e6,
            r.t_link * 1e6,
            r.t_bound * 1e6,
            busiest.name if busiest is not None else "-",
        )
    print(table)
    return 0


def cmd_chaos(args) -> int:
    import json as _json

    from .analysis.chaos import DEFAULT_RANKS
    from .artifacts.audit import encode_spec
    from .util import parse_size

    # Like ``cost --grid``, the gate's reference-equality guarantees are
    # calibrated against the contention-free ideal preset.
    if args.machine is None:
        args.machine = "ideal"
    if not args.grid:
        _check_point(args.collective, args.nranks)
    recipe = {
        "spec": encode_spec(_spec(args, None if args.grid else args.nranks)),
        "seed": args.seed,
        "collectives": None,
        "ranks": list(DEFAULT_RANKS),
        "nbytes": parse_size(args.nbytes),
    }
    if not args.grid:
        recipe.update(collectives=[args.collective], ranks=[args.nranks])
    report = _run_recipe(args, "chaos", recipe)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
        return (1 if not report.ok else 0) if args.strict else 0
    table = Table(
        ["collective", "P", "plan", "status", "drops", "retrans",
         "timeouts", "ACKs"],
        title=(
            f"chaos differential gate: seed={report.seed}, "
            f"nbytes={report.nbytes} on {report.machine}"
        ),
    )
    for c in report.checks:
        table.add_row(
            c.collective, c.nranks, c.plan, c.status.upper(),
            c.drops, c.retrans, c.timeouts, c.acks,
        )
    print(table)
    for c in report.failures:
        print(f"  FAIL {c.collective} P={c.nranks} plan={c.plan}: {c.detail}")
    print(report.describe().splitlines()[-1])
    return (1 if not report.ok else 0) if args.strict else 0


def cmd_replay(args) -> int:
    import json as _json

    from .analysis.replaygate import DEFAULT_RANKS, DEFAULT_SIZES
    from .artifacts.audit import encode_spec
    from .util import parse_size

    if not args.grid:
        _check_point(args.collective, args.nranks)
    recipe = {
        "spec": encode_spec(_spec(args, None if args.grid else args.nranks)),
        "ranks": list(DEFAULT_RANKS),
        "sizes": list(DEFAULT_SIZES),
    }
    if not args.grid:
        recipe.update(
            collectives=[args.collective],
            ranks=[args.nranks],
            sizes=[parse_size(args.nbytes)],
        )
    report = _run_recipe(args, "replay", recipe)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
        return (1 if not report.ok else 0) if args.strict else 0
    table = Table(
        ["collective", "P", "nbytes", "sends", "status"],
        title=f"replay differential gate (bitwise DES equality) on {report.machine}",
    )
    for c in report.checks:
        table.add_row(c.collective, c.nranks, c.nbytes, c.sends, c.status.upper())
    print(table)
    for c in report.failures:
        print(f"  FAIL {c.collective} P={c.nranks} nbytes={c.nbytes}: {c.detail}")
    print(report.describe().splitlines()[-1])
    return (1 if not report.ok else 0) if args.strict else 0


def cmd_audit(args) -> int:
    import json as _json

    from .artifacts import ArtifactStore, audit_artifact

    store = ArtifactStore(args.dir)
    if args.artifact:
        refs = [args.artifact]
    else:
        paths = store.list()
        if not paths:
            print(f"no artifacts under {store.dir}", file=sys.stderr)
            return 2
        refs = [p.stem for p in paths]
    results = []
    for ref in refs:
        if not args.json:
            print(f"auditing {ref} ...", flush=True)
        results.append(audit_artifact(ref, store=store))
    if args.json:
        print(_json.dumps([r.to_dict() for r in results], indent=2))
    else:
        for r in results:
            print(r.describe())
        failed = sum(1 for r in results if not r.ok)
        print(
            f"{len(results) - failed}/{len(results)} artifact(s) reproduced"
        )
    return 1 if any(not r.ok for r in results) else 0


def cmd_bench_report(args) -> int:
    import json as _json
    from pathlib import Path

    root = Path(args.dir)
    paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json files under {root}", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        try:
            data = _json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"{path.name}: unreadable ({exc})", file=sys.stderr)
            failures += 1
            continue
        print(f"{path.name} — {data.get('date', '?')}")
        print(f"  {data.get('benchmark', '?')}")
        gates = data.get("gates")
        if isinstance(gates, dict) and gates:
            # Analysis-gate wall-time ledger (REPRO_GATE_TIMES): one row
            # per subcommand so gate cost regressions are visible next
            # to the simulator performance trajectories.
            table = Table(["gate", "wall s", "exit"])
            for gate in sorted(gates):
                entry = gates[gate]
                if isinstance(entry, dict):
                    table.add_row(
                        gate, entry.get("wall_s", "?"), entry.get("exit", "?")
                    )
                else:
                    table.add_row(gate, entry, "?")
            print(table)
            # Robustness gates are result-integrity checks: a nonzero
            # exit means stored results stopped reproducing, which must
            # not scroll by as just another table row.
            for gate in ("audit", "cache"):
                entry = gates.get(gate)
                code = entry.get("exit") if isinstance(entry, dict) else None
                if isinstance(code, int) and code != 0:
                    print(
                        f"  WARNING: `repro {gate}` exited {code} — "
                        f"recorded results did not reproduce bitwise"
                    )
                    failures += 1
        metric_keys = [
            k for k in sorted(data)
            if k not in ("benchmark", "date", "notes", "gates")
        ]
        if metric_keys:
            table = Table(["metric", "value"])
            for key in metric_keys:
                table.add_row(key, data[key])
            print(table)
        cpu_count = data.get("cpu_count")
        # Only *parallel* speedups (jobs=N fan-out) are meaningless on a
        # 1-CPU host; algorithmic speedups (solver, replay, warm memos)
        # stay valid regardless of core count.
        speedup_keys = sorted(
            k
            for k in data
            if "speedup" in k and ("jobs" in k or "parallel" in k)
        )
        if isinstance(cpu_count, int) and cpu_count <= 1 and speedup_keys:
            print(
                f"  WARNING: recorded on a {cpu_count}-CPU host — parallel "
                f"speedup column(s) {', '.join(speedup_keys)} measure pool "
                f"overhead, not scaling"
            )
        notes = data.get("notes", "")
        if notes and args.notes:
            print(f"  notes: {notes}")
        print()
    return 1 if failures else 0


def cmd_trace(args) -> int:
    from .analysis import critical_path, phase_summary, write_chrome_trace
    from .analysis.verify import REGISTRY
    from .errors import ReproError
    from .machine import Machine
    from .mpi.runtime import Job
    from .sim import Trace
    from .util import parse_size

    nbytes = parse_size(args.nbytes)
    spec = _spec(args)
    _check_point(args.collective, args.nranks, args.root)
    collective = REGISTRY[args.collective]
    try:
        machine = Machine(spec, args.nranks, args.placement)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = Trace()
    job = Job(
        machine,
        collective.build(args.nranks, nbytes, args.root),
        trace=trace,
        working_set=nbytes,
    )
    result = job.run()
    print(
        f"{args.collective}: P={args.nranks}, nbytes={nbytes} on {spec.name} "
        f"— makespan {result.time * 1e6:.2f}us, "
        f"{result.counters.messages} message(s)"
    )
    for phase, entry in sorted(phase_summary(trace).items()):
        print(
            f"  {phase}: {entry['messages']} msg(s), {entry['bytes']} B, "
            f"{entry['duration'] * 1e6:.2f}us"
        )
    if args.critical_path:
        print(f"critical path: {critical_path(trace).describe()}")
    if args.chrome:
        write_chrome_trace(trace, args.chrome)
        print(f"chrome trace written to {args.chrome}")
    return 0


def cmd_lint(args) -> int:
    from .analysis.lint import main as lint_main

    return lint_main(args.paths)


def cmd_prove(args) -> int:
    import json as _json

    from .errors import ConfigurationError
    from .util import parse_size

    if args.all:
        args.collective = "all"
    nbytes = parse_size(args.nbytes)
    try:
        lo_s, _, hi_s = args.xval.partition(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ConfigurationError(f"--xval expects LO:HI, got {args.xval!r}") from None
    recipe = {
        "xval_lo": lo,
        "xval_hi": hi,
        "nbytes": nbytes,
        "skip_crossval": args.no_crossval,
    }
    if args.collective == "all":
        report = _run_recipe(args, "prove", recipe)
        if args.json:
            print(_json.dumps(report.to_dict(), indent=2))
        else:
            print(report.describe())
        ok = report.ok_strict() if args.strict else report.ok
        return 0 if ok else 1
    cert = _run_recipe(args, "prove", {"collective": args.collective, **recipe})
    if args.json:
        print(_json.dumps(cert.to_dict(), indent=2))
    else:
        for o in cert.obligations:
            mark = {"proved": "ok", "structural": "ok*"}.get(o.status, "FAIL")
            print(f"  [{mark:>4}] {o.oid}: {o.statement}")
        xval = (
            "skipped"
            if cert.crossval_skipped
            else f"{cert.crossval_points} point(s), "
            f"{len(cert.crossval_failures)} failure(s)"
        )
        for fdesc in cert.crossval_failures[:10]:
            print(f"  XVAL {fdesc}")
        print(
            f"{cert.collective}: {'ok' if cert.ok else 'FAILED'} — "
            f"{len(cert.obligations)} obligation(s), crossval {xval}"
        )
    ok = cert.ok and not (args.strict and cert.crossval_skipped)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bandwidth-saving MPI broadcast reproduction (Zhou et al., ICPP 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="native vs tuned broadcast at one point")
    _add_machine_args(p)
    p.add_argument("--nranks", type=int, default=64)
    p.add_argument("--nbytes", default="1MiB")
    p.add_argument(
        "--solver-stats",
        action="store_true",
        help="print fluid-solver telemetry after the results",
    )
    _add_fault_args(p)
    p.add_argument(
        "--chaos-stats",
        action="store_true",
        help="print fault-injection/ARQ telemetry after the results",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="bandwidth table over message sizes")
    _add_machine_args(p)
    _add_exec_args(p)
    p.add_argument("--nranks", type=int, default=64)
    p.add_argument(
        "--sizes", default="512KiB,1MiB,2MiB,4MiB", help="comma-separated sizes"
    )
    p.add_argument(
        "--solver-stats",
        action="store_true",
        help="print fluid-solver telemetry after the results",
    )
    _add_fault_args(p)
    p.add_argument(
        "--chaos-stats",
        action="store_true",
        help="print fault-injection/ARQ telemetry after the results",
    )
    _add_artifact_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="reproduce one paper figure grid")
    _add_exec_args(p)
    p.add_argument(
        "--id",
        choices=["fig6a", "fig6b", "fig6c", "fig7", "fig8"],
        default="fig6a",
        help="which figure to reproduce (default: fig6a)",
    )
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("cache", help="inspect or clear the sweep-result cache")
    p.add_argument("--cache-dir", default=None, help="cache directory override")
    p.add_argument("--clear", action="store_true", help="delete all cached records")
    p.add_argument(
        "--fsck",
        action="store_true",
        help=(
            "verify per-line checksums and shard structure; exit 1 when "
            "corruption is found"
        ),
    )
    p.add_argument(
        "--repair",
        action="store_true",
        help="with --fsck: rewrite damaged shards, dropping corrupt lines",
    )
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("traffic", help="transfer-count table for process counts")
    p.add_argument("--procs", default="8,10,16,64", help="comma-separated P values")
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser(
        "verify",
        help=(
            "static schedule verification (provenance, redundancy, deadlock, "
            "match order)"
        ),
    )
    p.add_argument(
        "--collective",
        default="all",
        help="registry name (e.g. bcast_native) or 'all' (default)",
    )
    p.add_argument(
        "--nranks", default="8", help="comma-separated process counts (default: 8)"
    )
    p.add_argument("--nbytes", default="64KiB", help="message size (default: 64KiB)")
    p.add_argument("--root", type=int, default=0, help="root rank (default: 0)")
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    _add_artifact_arg(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "mc",
        help="exhaustive match-order model checker with DPOR",
    )
    p.add_argument(
        "--collective",
        default="bcast_opt",
        help="registry name for single-point mode (default: bcast_opt)",
    )
    p.add_argument(
        "--nranks", default="4", help="comma-separated process counts (default: 4)"
    )
    p.add_argument("--nbytes", default="1KiB", help="payload size (default: 1KiB)")
    p.add_argument("--root", type=int, default=0, help="root rank (default: 0)")
    p.add_argument(
        "--grid",
        action="store_true",
        help="full registry x P in {2..6}, rings to P=8, seeded fault cells",
    )
    p.add_argument(
        "--max-states",
        type=int,
        default=20000,
        help="exploration budget per point (default: 20000)",
    )
    p.add_argument(
        "--naive",
        action="store_true",
        help="full enumeration instead of DPOR (reduction baseline)",
    )
    p.add_argument(
        "--drop-p", type=float, default=0.0, help="uniform drop probability"
    )
    p.add_argument(
        "--dup-p", type=float, default=0.0, help="uniform duplicate probability"
    )
    p.add_argument(
        "--corrupt-p", type=float, default=0.0, help="uniform corrupt probability"
    )
    p.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default: 0)"
    )
    p.add_argument(
        "--max-attempts",
        type=int,
        default=4,
        help="abstract ARQ retry budget per send (default: 4)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="budget-truncated (incomplete) explorations also fail",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    _add_artifact_arg(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser(
        "cost",
        help="static alpha-beta/LogGP cost model (table or differential gate)",
    )
    p.add_argument(
        "--machine",
        choices=sorted(_PRESETS),
        default=None,
        help="machine preset (default: hornet for the table, ideal for --grid)",
    )
    p.add_argument("--nodes", type=int, default=None, help="override node count")
    p.add_argument(
        "--placement",
        choices=["blocked", "round_robin"],
        default="blocked",
        help="rank placement policy",
    )
    p.add_argument(
        "--collective",
        default="all",
        help="registry name (e.g. bcast_native) or 'all' (default)",
    )
    p.add_argument("--nranks", type=int, default=8, help="process count (default: 8)")
    p.add_argument("--nbytes", default="1MiB", help="message size (default: 1MiB)")
    p.add_argument("--root", type=int, default=0, help="root rank (default: 0)")
    p.add_argument(
        "--grid",
        action="store_true",
        help="run the full static-vs-simulation differential gate",
    )
    p.add_argument(
        "--band",
        type=float,
        default=0.5,
        help="tightness band for --grid: t_bound >= band * makespan (default: 0.5)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="with --grid: exit nonzero when any gate check fails",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    _add_artifact_arg(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser(
        "chaos",
        help="fault-injection differential gate on the reliable transport",
    )
    p.add_argument(
        "--machine",
        choices=sorted(_PRESETS),
        default=None,
        help="machine preset (default: ideal)",
    )
    p.add_argument("--nodes", type=int, default=None, help="override node count")
    p.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default: 0)"
    )
    p.add_argument(
        "--collective",
        default="bcast_opt",
        help="registry name for single-point mode (default: bcast_opt)",
    )
    p.add_argument("--nranks", type=int, default=8, help="process count (default: 8)")
    p.add_argument(
        "--nbytes", default="4KiB", help="message size (default: 4KiB)"
    )
    p.add_argument(
        "--grid",
        action="store_true",
        help="run every registry collective at the default rank grid",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any chaos check fails",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    _add_artifact_arg(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "replay",
        help="vectorized-replay differential gate (bitwise DES equality)",
    )
    p.add_argument(
        "--machine",
        choices=sorted(_PRESETS),
        default="hornet",
        help="machine preset (default: hornet)",
    )
    p.add_argument("--nodes", type=int, default=None, help="override node count")
    p.add_argument(
        "--collective",
        default="bcast_opt",
        help="registry name for single-point mode (default: bcast_opt)",
    )
    p.add_argument("--nranks", type=int, default=8, help="process count (default: 8)")
    p.add_argument(
        "--nbytes", default="64KiB", help="message size (default: 64KiB)"
    )
    p.add_argument(
        "--grid",
        action="store_true",
        help="run every registry collective at the default rank/size grid",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any replay check fails",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    _add_artifact_arg(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "audit",
        help="re-execute a stored run artifact and diff it bitwise",
    )
    p.add_argument(
        "artifact",
        nargs="?",
        default=None,
        help=(
            "artifact path or name (e.g. sweep-0123abcd4567); omitted = "
            "audit every artifact in the store"
        ),
    )
    p.add_argument(
        "--dir",
        default=None,
        help=(
            "artifact store directory (default: $REPRO_ARTIFACTS or "
            "<cache-dir>/artifacts)"
        ),
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "bench-report",
        help="print every BENCH_*.json performance trajectory as tables",
    )
    p.add_argument(
        "--dir", default=".", help="directory holding BENCH_*.json (default: .)"
    )
    p.add_argument(
        "--notes", action="store_true", help="also print each file's notes field"
    )
    p.set_defaults(func=cmd_bench_report)

    p = sub.add_parser(
        "trace",
        help="simulate one collective with tracing (critical path, chrome export)",
    )
    _add_machine_args(p)
    p.add_argument(
        "--collective",
        default="bcast_opt",
        help="registry name to simulate (default: bcast_opt)",
    )
    p.add_argument("--nranks", type=int, default=8, help="process count (default: 8)")
    p.add_argument("--nbytes", default="1MiB", help="message size (default: 1MiB)")
    p.add_argument("--root", type=int, default=0, help="root rank (default: 0)")
    p.add_argument(
        "--critical-path",
        action="store_true",
        help="print the heaviest dependency chain in the trace",
    )
    p.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="write a chrome://tracing JSON file to PATH",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "lint", help="determinism lint over the simulation core (AST pass)"
    )
    p.add_argument(
        "paths", nargs="*", help="files/dirs to lint (default: sim, collectives, mpi)"
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "prove",
        help="parametric certificate checker: symbolic all-P schedule proofs",
    )
    p.add_argument(
        "--collective",
        default="all",
        help="certificate to check, or 'all' for the whole registry "
        "(default: all)",
    )
    p.add_argument(
        "--all",
        action="store_true",
        help="check every registry collective (the default; certified "
        "entries are proved, the rest must carry waivers)",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="also fail when cross-validation was skipped",
    )
    p.add_argument(
        "--xval",
        default="2:64",
        metavar="LO:HI",
        help="inclusive P range for concrete cross-validation "
        "(default: 2:64)",
    )
    p.add_argument(
        "--no-crossval",
        action="store_true",
        help="symbolic obligations only (fails under --strict)",
    )
    p.add_argument(
        "--nbytes",
        default="64KiB",
        help="message size for cross-validation points (default: 64KiB)",
    )
    _add_artifact_arg(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser(
        "validate", help="data-checked run of every broadcast algorithm"
    )
    _add_machine_args(p)
    p.add_argument("--nranks", type=int, default=16)
    p.add_argument("--nbytes", default="64KiB")
    p.add_argument("--root", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    return parser


def _record_gate_time(path: str, command: str, wall: float, code: int) -> None:
    """Append one subcommand's wall time to a BENCH-style JSON ledger.

    Enabled by ``REPRO_GATE_TIMES=path``; ``repro bench-report`` renders
    the ledger next to the performance trajectories so analysis-gate
    cost regressions show up alongside simulator perf numbers.
    """
    import json as _json
    from pathlib import Path

    p = Path(path)
    try:
        data = _json.loads(p.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            data = {}
    except (OSError, ValueError):
        data = {}
    data.setdefault(
        "benchmark", "analysis gate wall times (repro <subcommand>)"
    )
    gates = data.setdefault("gates", {})
    if not isinstance(gates, dict):
        gates = data["gates"] = {}
    gates[command] = {"wall_s": round(wall, 3), "exit": code}
    try:
        p.write_text(
            _json.dumps(data, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        print(f"warning: cannot record gate time: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    import os
    from time import perf_counter

    from .errors import (
        ArtifactError,
        ConfigurationError,
        MachineError,
        SweepExecutionError,
    )

    args = build_parser().parse_args(argv)
    gate_log = os.environ.get("REPRO_GATE_TIMES")
    start = perf_counter() if gate_log else 0.0
    try:
        code = args.func(args)
    except ArtifactError as exc:
        # A missing/unreadable artifact reference is a usage error too;
        # a *failed* audit (records no longer reproduce) exits 1.
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except (ConfigurationError, MachineError) as exc:
        # Uniform CLI convention: configuration/usage errors exit 2
        # (violations exit 1, clean runs 0) across every subcommand; a
        # machine spec the model rejects (an artifact's, say) is one.
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except SweepExecutionError as exc:
        # A failed sweep point: its error names the point, so no
        # traceback of this process is needed (exit 1).
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    if gate_log:
        _record_gate_time(gate_log, args.command, perf_counter() - start, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
