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
from typing import TYPE_CHECKING, Optional, Union

from ..collectives.bcast import get_algorithm
from ..collectives.emit import BCAST_CERTIFICATES, emit_schedule
from ..collectives.schedule import extract_schedule
from ..collectives.selector import choose_bcast_name
from ..collectives.smp import bcast_smp
from ..errors import ConfigurationError, ReplayUnsupportedError
from ..machine.machine import Machine
from ..machine.spec import MachineSpec
from ..sim.replay import ReplayEngine, compile_schedule
from ..util.sizes import parse_size
from .report import ComparisonRecord, RunRecord

if TYPE_CHECKING:
    from ..sim.faults import FaultPlan
    from ..sim.trace import Trace

# The coroutine DES (``Job``), real buffers and the barrier are imported
# where a dynamic, validating or iterated run needs them: a replayed
# sweep never loads the MPI runtime.

__all__ = [
    "simulate_bcast",
    "compare_bcast",
    "validate_bcast",
]


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


def _is_static(faults, trace, validate: bool) -> bool:
    """True when the run's timing is statically determined (replayable).

    Fault injection (and with it the ARQ transport), tracing and data
    validation need the coroutine DES.
    """
    return (faults is None or faults.is_zero) and trace is None and not validate


def _run(
    machine: Machine,
    factory,
    working_set: int,
    emit=None,
    buffers=None,
    trace=None,
    faults=None,
):
    """Run *factory* once on *machine*; returns ``(result, engine_name)``.

    A static run (:func:`_is_static`) replays its schedule: the one
    *emit* builds when given, else the extracted and compiled one. A
    schedule replay cannot express (:class:`ReplayUnsupportedError`)
    and every dynamic run go to the coroutine DES. *result* quacks like
    a ``JobResult`` (``time``/``counters``/``solver_stats``).
    """
    if _is_static(faults, trace, buffers is not None):
        try:
            if emit is not None:
                compiled = emit()
            else:
                schedule = extract_schedule(
                    machine.nranks, factory, placement=machine.placement
                )
                compiled = compile_schedule(schedule)
            engine = ReplayEngine(machine, compiled, working_set=working_set)
            return engine.run(), "replay"
        except ReplayUnsupportedError:
            pass
    from ..mpi.runtime import Job

    job = Job(
        machine,
        factory,
        buffers=buffers,
        trace=trace,
        working_set=working_set,
        faults=faults,
    )
    return job.run(), "des"


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

    ``faults`` attaches a :class:`~repro.sim.faults.FaultPlan`; a
    non-zero plan runs on the ARQ transport
    (:class:`~repro.mpi.reliable.ReliableTransport`), which injects the
    plan's faults and recovers from them. Chaos telemetry lands in the
    record as whole-run totals (not divided by ``iterations``).
    """
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    size = parse_size(nbytes)
    machine = _make_machine(spec_or_machine, nranks, placement)
    label, algo = _resolve_algorithm(algorithm, size, nranks, machine, faults=faults)

    fill = 0xA5
    buffers = None
    if validate:
        from ..mpi.buffers import RealBuffer

        buffers = [
            RealBuffer(size, fill=(fill if r == root else 0)) for r in range(nranks)
        ]

    if iterations > 1:
        from ..collectives.barrier import barrier

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
    result, engine = _run(
        machine,
        factory,
        size,
        emit=emit,
        buffers=buffers,
        trace=trace,
        faults=faults,
    )

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
) -> ComparisonRecord:
    """Run the native and tuned designs at one point (paper-style A/B).

    Fresh machines are built per run so no fluid-resource state leaks
    between the two measurements. ``faults`` applies to both runs (see
    :func:`simulate_bcast`).
    """
    size = parse_size(nbytes)
    rec_native = simulate_bcast(
        spec, nranks, size, algorithm=native, root=root, placement=placement,
        faults=faults,
    )
    rec_opt = simulate_bcast(
        spec, nranks, size, algorithm=opt, root=root, placement=placement,
        faults=faults,
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
