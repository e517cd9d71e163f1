"""High-level public API: simulate and compare broadcast algorithms.

This is the façade a downstream user starts from::

    from repro import core, machine

    spec = machine.hornet()
    run = core.simulate_bcast(spec, nranks=64, nbytes="1MiB",
                              algorithm="scatter_ring_opt")
    print(run.describe())

    cmp = core.compare_bcast(spec, nranks=64, nbytes="1MiB")
    print(cmp.describe())
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Union

from ..collectives import (
    ALGORITHMS,
    ALLGATHER_ALGORITHMS,
    bcast_smp,
    choose_bcast_name,
    get_algorithm,
)
from ..collectives.barrier import barrier
from ..collectives.emit import BCAST_CERTIFICATES, emit_schedule
from ..collectives.schedule import extract_schedule
from ..errors import ConfigurationError, ReplayUnsupportedError
from ..machine import Machine, MachineSpec
from ..mpi import Job, RealBuffer
from ..sim import Trace
from ..sim.faults import FaultPlan
from ..sim.flows import solver_mode
from ..sim.replay import ReplayEngine, compile_schedule, engine_mode
from ..util import parse_size
from .report import ComparisonRecord, RunRecord

__all__ = [
    "simulate_bcast",
    "compare_bcast",
    "validate_bcast",
    "simulate_allgather",
    "available_algorithms",
]


def available_algorithms() -> list:
    """Registry names accepted by ``algorithm=`` (plus ``"auto"``/``"smp"``)."""
    return sorted(ALGORITHMS) + ["auto", "auto_tuned", "smp", "smp_opt"]


def _make_machine(spec_or_machine, nranks: int, placement) -> Machine:
    if isinstance(spec_or_machine, Machine):
        if spec_or_machine.nranks != nranks:
            raise ConfigurationError(
                f"machine hosts {spec_or_machine.nranks} ranks, requested {nranks}"
            )
        return spec_or_machine
    if isinstance(spec_or_machine, MachineSpec):
        return Machine(spec_or_machine, nranks=nranks, placement=placement)
    raise ConfigurationError(
        f"expected MachineSpec or Machine, got {type(spec_or_machine).__name__}"
    )


def _resolve_algorithm(
    name: str, nbytes: int, nranks: int, machine: Machine, faults=None
):
    """Map an ``algorithm=`` argument to a program-producing callable.

    ``faults`` only affects the ``auto``/``auto_tuned`` rows: the
    selector degrades the ring regime to the binomial tree when the plan
    has a crashed rank (an explicit algorithm name is always honoured).
    """
    if name == "auto":
        name = choose_bcast_name(nbytes, nranks, tuned=False, faults=faults)
    elif name == "auto_tuned":
        name = choose_bcast_name(nbytes, nranks, tuned=True, faults=faults)
    if name in ("smp", "smp_opt"):
        inner = get_algorithm(
            "scatter_ring_opt" if name == "smp_opt" else "scatter_ring_native"
        )
        label = name

        def algo(ctx, nbytes, root):
            return bcast_smp(
                ctx, nbytes, root, placement=machine.placement, inner=inner
            )

        return label, algo
    return name, get_algorithm(name)


# Process-wide memo of compiled replay schedules. Building one costs an
# extraction (an emission for the certified broadcasts), and sweep,
# figure and gate commands revisit the same (algorithm, P, size) points
# many times per process; the compiled form is machine-independent, so
# one entry serves every spec. The key folds in the placement's exact
# node map — the only machine input an algorithm can close over
# (``smp``/``smp_opt``).
_REPLAY_MEMO: dict = {}
_REPLAY_MEMO_CAP = 256


def _is_static(machine: Machine, faults, reliable, trace, validate: bool) -> bool:
    """True when the run's timing is statically determined (replayable).

    Fault injection, the ARQ transport, tracing, data validation and
    stochastic latencies all need the coroutine DES.
    """
    return (
        (faults is None or faults.is_zero)
        and not reliable
        and trace is None
        and not validate
        and machine.spec.jitter_sigma == 0.0
        and machine.spec.queueing_kappa == 0.0
    )


def _replay_compiled(kind: str, machine: Machine, factory, key_tail: tuple, emit=None):
    """*factory*'s compiled schedule, memoised per process: built by
    *emit* when given, else extracted and compiled."""
    placement = machine.placement
    key = (
        kind,
        machine.nranks,
        key_tail,
        tuple(placement.node_of(r) for r in range(machine.nranks)),
    )
    compiled = _REPLAY_MEMO.get(key)
    if compiled is None:
        if emit is not None:
            compiled = emit()
        else:
            schedule = extract_schedule(machine.nranks, factory, placement=placement)
            compiled = compile_schedule(schedule)
        if len(_REPLAY_MEMO) < _REPLAY_MEMO_CAP:
            _REPLAY_MEMO[key] = compiled
    return compiled


def _dispatch(machine, factory, kind, key_tail, working_set, *, static=True, emit=None):
    """Run *factory* on the engine ``REPRO_ENGINE`` selects.

    Returns ``(result, engine_name)`` where *result* quacks like a
    ``JobResult`` (``time``/``rank_finish_times``/``counters``/
    ``solver_stats``). ``static=False`` marks configurations the replay
    engine cannot express; ``auto`` then runs the DES and a forced
    ``replay`` fails loudly instead of silently changing semantics.
    *emit* builds the replay schedule without extraction.
    """
    mode = engine_mode()
    if solver_mode() != "incremental":
        # REPRO_SOLVER=reference is the solver differential-testing
        # escape hatch; replay has its own data plane and cannot honour
        # it, so the request routes to the DES.
        if mode == "replay":
            raise ConfigurationError(
                "REPRO_ENGINE=replay cannot honour REPRO_SOLVER="
                f"{solver_mode()!r}: the replay engine has its own "
                "data plane; unset one of the two"
            )
        return None, "des"
    if mode != "des" and static:
        try:
            compiled = _replay_compiled(kind, machine, factory, key_tail, emit)
            engine = ReplayEngine(machine, compiled, working_set=working_set)
            return engine.run(), "replay"
        except ReplayUnsupportedError as exc:
            if mode == "replay":
                raise ConfigurationError(
                    f"REPRO_ENGINE=replay but the schedule cannot be "
                    f"replayed: {exc}"
                ) from exc
    elif mode == "replay":
        raise ConfigurationError(
            "REPRO_ENGINE=replay requires a static run: no fault plan, "
            "no reliable transport, no trace, no validation and "
            "deterministic latencies (jitter_sigma=queueing_kappa=0)"
        )
    return None, "des"


def _solver_fields(stats) -> dict:
    """RunRecord kwargs for a run's fluid-solver telemetry (whole-run
    totals, not divided by ``iterations`` — the solver cost is per run)."""
    if stats is None:
        return {}
    return {
        "solver_mode": stats.mode,
        "solver_solves": stats.solves,
        "solver_rounds": stats.rounds,
        "solver_components": stats.components_solved,
        "solver_max_component": stats.max_component,
        "solver_flows_advanced": stats.flows_advanced,
        "solver_time_s": stats.solve_time_s,
    }


def simulate_bcast(
    spec_or_machine: Union[MachineSpec, Machine],
    nranks: int,
    nbytes: Union[int, str],
    algorithm: str = "auto",
    root: int = 0,
    placement="blocked",
    validate: bool = False,
    trace: Optional[Trace] = None,
    iterations: int = 1,
    faults: Optional[FaultPlan] = None,
    reliable=None,
) -> RunRecord:
    """Simulate one broadcast and return its :class:`RunRecord`.

    ``algorithm`` is a registry name, ``"auto"`` (MPICH3 selection),
    ``"auto_tuned"`` (MPICH3 selection with the paper's tuned ring), or
    ``"smp"``/``"smp_opt"`` (three-phase multi-core-aware broadcast).
    ``validate=True`` moves real bytes and asserts every rank ends with
    the root's payload — slower; use for correctness checks, not sweeps.
    ``iterations > 1`` mirrors the paper's measurement loop (a
    dissemination barrier before each broadcast, 100 repetitions); the
    reported ``time`` is then the per-iteration average and message
    counts are per iteration (barrier tokens excluded from bytes but
    counted as messages / iterations rounding down).

    ``faults`` attaches a :class:`~repro.sim.faults.FaultPlan`;
    ``reliable`` opts into the ARQ transport (``True`` or a
    :class:`~repro.mpi.reliable.ReliableConfig`). When ``reliable`` is
    left ``None`` it defaults to on exactly when a non-zero fault plan
    is given — injecting faults without a recovery protocol is a recipe
    for a deadlock, which stays available explicitly via
    ``reliable=False``. Chaos telemetry lands in the record as
    whole-run totals (not divided by ``iterations``).
    """
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    if reliable is None:
        reliable = faults is not None and not faults.is_zero
    size = parse_size(nbytes)
    machine = _make_machine(spec_or_machine, nranks, placement)
    label, algo = _resolve_algorithm(algorithm, size, nranks, machine, faults=faults)

    fill = 0xA5
    buffers = None
    if validate:
        buffers = [
            RealBuffer(size, fill=(fill if r == root else 0)) for r in range(nranks)
        ]

    def factory(ctx):
        def program():
            last = None
            for _ in range(iterations):
                if iterations > 1:
                    yield from barrier(ctx)
                last = yield from algo(ctx, size, root)
            return last

        return program()

    emit = None
    if iterations == 1 and label in BCAST_CERTIFICATES:
        # The certified broadcasts' schedules have a closed form.
        emit = partial(emit_schedule, BCAST_CERTIFICATES[label], nranks, size, root)
    result, engine = _dispatch(
        machine,
        factory,
        "bcast",
        (label, size, root, iterations),
        size,
        static=_is_static(machine, faults, reliable, trace, validate),
        emit=emit,
    )
    if result is None:
        result = Job(
            machine,
            factory,
            buffers=buffers,
            trace=trace,
            working_set=size,
            faults=faults,
            reliable=reliable,
        ).run()

    if validate:
        for rank, buf in enumerate(buffers):
            if not (buf.array == fill).all():
                raise ConfigurationError(
                    f"broadcast validation failed: rank {rank} buffer incomplete"
                )

    c = result.counters
    return RunRecord(
        algorithm=label,
        nranks=nranks,
        nbytes=size,
        root=root,
        time=result.time / iterations,
        messages=c.messages // iterations,
        bytes_on_wire=c.bytes // iterations,
        intra_messages=c.intra_messages // iterations,
        inter_messages=c.inter_messages // iterations,
        machine=machine.spec.name,
        engine=engine,
        drops_injected=c.drops_injected,
        retrans_messages=c.retrans_messages,
        retrans_bytes=c.retrans_bytes,
        ack_messages=c.ack_messages,
        ack_bytes=c.ack_bytes,
        timeouts=c.timeouts,
        **_solver_fields(result.solver_stats),
    )


def compare_bcast(
    spec: MachineSpec,
    nranks: int,
    nbytes: Union[int, str],
    root: int = 0,
    placement="blocked",
    native: str = "scatter_ring_native",
    opt: str = "scatter_ring_opt",
    faults: Optional[FaultPlan] = None,
    reliable=None,
) -> ComparisonRecord:
    """Run the native and tuned designs at one point (paper-style A/B).

    Fresh machines are built per run so no fluid-resource state leaks
    between the two measurements. ``faults``/``reliable`` apply to both
    runs (see :func:`simulate_bcast`).
    """
    size = parse_size(nbytes)
    rec_native = simulate_bcast(
        spec, nranks, size, algorithm=native, root=root, placement=placement,
        faults=faults, reliable=reliable,
    )
    rec_opt = simulate_bcast(
        spec, nranks, size, algorithm=opt, root=root, placement=placement,
        faults=faults, reliable=reliable,
    )
    return ComparisonRecord(nranks=nranks, nbytes=size, native=rec_native, opt=rec_opt)


def validate_bcast(
    spec: MachineSpec,
    nranks: int,
    nbytes: Union[int, str],
    algorithm: str = "auto_tuned",
    root: int = 0,
) -> RunRecord:
    """Shorthand for a data-validating run (real buffers)."""
    return simulate_bcast(
        spec, nranks, nbytes, algorithm=algorithm, root=root, validate=True
    )


def simulate_allgather(
    spec_or_machine: Union[MachineSpec, Machine],
    nranks: int,
    block_nbytes: Union[int, str],
    algorithm: str = "ring",
    placement="blocked",
    trace: Optional[Trace] = None,
) -> RunRecord:
    """Simulate a standalone ``MPI_Allgather`` (the operation the paper
    tunes inside broadcast), with ``algorithm`` one of
    ``ring | rdbl | bruck``. Each rank contributes ``block_nbytes``;
    the record's ``nbytes`` is the gathered total (P x block)."""
    block = parse_size(block_nbytes)
    machine = _make_machine(spec_or_machine, nranks, placement)
    try:
        algo = ALLGATHER_ALGORITHMS[algorithm]
    except KeyError:
        raise ConfigurationError(
            f"unknown allgather algorithm {algorithm!r}; "
            f"known: {sorted(ALLGATHER_ALGORITHMS)}"
        ) from None

    def factory(ctx):
        def program():
            return (yield from algo(ctx, block))

        return program()

    total = block * nranks
    result, engine = _dispatch(
        machine,
        factory,
        "allgather",
        (algorithm, block),
        total,
        static=_is_static(machine, None, None, trace, False),
    )
    if result is None:
        result = Job(machine, factory, trace=trace, working_set=total).run()
    c = result.counters
    return RunRecord(
        algorithm=f"allgather_{algorithm}",
        nranks=nranks,
        nbytes=total,
        root=0,
        time=result.time,
        messages=c.messages,
        bytes_on_wire=c.bytes,
        intra_messages=c.intra_messages,
        inter_messages=c.inter_messages,
        machine=machine.spec.name,
        engine=engine,
        **_solver_fields(result.solver_stats),
    )
