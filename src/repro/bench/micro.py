"""Point-to-point microbenchmarks (OSU-style) on the simulated machine.

Real MPI installations are characterised with ping-pong latency
microbenchmarks before anyone trusts collective numbers; :func:`pingpong`
is the same probe for the simulator. It drives the full transport
(matching, protocols, flows), so its results reflect every modelled
effect — and :mod:`repro.core.fitting` turns them back into effective
alpha/beta parameters, closing the calibration loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Sequence, Type, Union

from ..errors import ConfigurationError
from ..machine import Machine, MachineSpec
from ..mpi import Job
from ..sim import Engine, FlowNetwork, Resource, SolverStats
from ..util import parse_size

__all__ = [
    "PingPongPoint",
    "pingpong",
    "SolverChurnResult",
    "solver_churn",
]

MICRO_TAG = 12


@dataclass(frozen=True)
class PingPongPoint:
    """One ping-pong measurement."""

    nbytes: int
    latency: float  # one-way seconds (round trip / 2)
    bandwidth: float  # bytes/s at this size


def _machine(spec_or_machine, nranks: int) -> Machine:
    if isinstance(spec_or_machine, Machine):
        return spec_or_machine
    if isinstance(spec_or_machine, MachineSpec):
        return Machine(spec_or_machine, nranks=nranks)
    raise ConfigurationError(
        f"expected MachineSpec or Machine, got {type(spec_or_machine).__name__}"
    )


def pingpong(
    spec_or_machine: Union[MachineSpec, Machine],
    sizes: Sequence,
    src: int = 0,
    dst: int = 1,
    iterations: int = 10,
) -> List[PingPongPoint]:
    """Classic ping-pong: ``src`` and ``dst`` bounce each size
    ``iterations`` times; one-way latency is half the averaged round
    trip."""
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    if src == dst:
        raise ConfigurationError("ping-pong needs two distinct ranks")
    parsed = [parse_size(s) for s in sizes]
    if not parsed:
        raise ConfigurationError("ping-pong needs at least one size")
    machine = _machine(spec_or_machine, max(src, dst) + 1)

    points = []
    for nbytes in parsed:

        def factory(ctx, nbytes=nbytes):
            def program():
                if ctx.rank == src:
                    for _ in range(iterations):
                        yield from ctx.send(dst, nbytes, tag=MICRO_TAG)
                        yield from ctx.recv(dst, nbytes, tag=MICRO_TAG)
                elif ctx.rank == dst:
                    for _ in range(iterations):
                        yield from ctx.recv(src, nbytes, tag=MICRO_TAG)
                        yield from ctx.send(src, nbytes, tag=MICRO_TAG)

            return program()

        result = Job(machine, factory).run()
        one_way = result.time / (2 * iterations)
        points.append(
            PingPongPoint(
                nbytes=nbytes,
                latency=one_way,
                bandwidth=(nbytes / one_way) if one_way > 0 else float("inf"),
            )
        )
    return points


@dataclass(frozen=True)
class SolverChurnResult:
    """Outcome of one :func:`solver_churn` run."""

    nranks: int
    flows_completed: int
    flows_cancelled: int
    sim_time: float  # simulated seconds to drain the churn
    wall_s: float  # host seconds for the whole run
    stats: SolverStats  # the network's solver telemetry

    @property
    def solve_time_s(self) -> float:
        return self.stats.solve_time_s


def solver_churn(
    nranks: int,
    steps: int = 8,
    ranks_per_node: int = 8,
    block_nbytes: Union[int, str] = "64KiB",
    cancel_every: int = 7,
    network: Type[FlowNetwork] = FlowNetwork,
) -> SolverChurnResult:
    """Ring-allgather-shaped flow churn driven straight at a FlowNetwork.

    Every rank streams ``steps`` blocks to its right neighbour through a
    private copy-out engine, the node's shared NIC and the neighbour's
    copy-in engine — the contention shape of the paper's ring allgather
    on a multi-core cluster. Each completion immediately launches the
    rank's next block, and every ``cancel_every``-th flow is aborted
    mid-flight instead, so the solver sees a constant storm of
    add/complete/cancel transitions (~``nranks`` flows in flight,
    ``nranks x steps`` transfers total). Because per-rank engines are
    private and only the NIC is shared, the network decomposes into one
    contention component per node — exactly the structure component
    tracking exploits and a from-scratch solver re-derives at every
    event.

    The workload is fully deterministic (sizes staggered by a fixed
    rank/step hash); ``network`` is the :class:`FlowNetwork` class under
    test (a subclass, such as the from-scratch reference in the tests,
    runs the identical churn).
    """
    if nranks < 2:
        raise ConfigurationError(f"solver churn needs >= 2 ranks, got {nranks}")
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    block = parse_size(block_nbytes)
    engine = Engine()
    net = network(engine)

    nodes = (nranks + ranks_per_node - 1) // ranks_per_node
    out_eng = [Resource(f"churn.out{r}", 4e9, kind="cpu") for r in range(nranks)]
    in_eng = [Resource(f"churn.in{r}", 4e9, kind="cpu") for r in range(nranks)]
    nic = [Resource(f"churn.nic{n}", 8e9, kind="nic") for n in range(nodes)]

    cancelled = [0]
    # Abort point well inside a block's ~65us service time at these caps.
    cancel_delay = block / 16e9

    def launch(r: int, s: int) -> None:
        if s >= steps:
            return
        # Deterministic per-(rank, step) size stagger spreads completions
        # so events interleave instead of arriving in lockstep.
        nbytes = block * (1.0 + ((r * 31 + s * 17) % 64) / 64.0)
        path = (out_eng[r], nic[r // ranks_per_node], in_eng[(r + 1) % nranks])
        state = {"done": False}

        def on_complete(_flow, r=r, s=s, state=state):
            state["done"] = True
            launch(r, s + 1)

        flow = net.add_flow(nbytes, path, on_complete=on_complete)
        if (r + 3 * s) % cancel_every == 0:

            def abort(flow=flow, r=r, s=s, state=state):
                if state["done"]:
                    return
                net.cancel_flow(flow)
                cancelled[0] += 1
                launch(r, s + 1)

            engine.schedule(cancel_delay, abort)

    start = perf_counter()  # det: allow — benchmark stopwatch, not sim time
    for r in range(nranks):
        engine.schedule(0.0, launch, r, 0)
    engine.run()
    wall = perf_counter() - start  # det: allow — benchmark stopwatch
    return SolverChurnResult(
        nranks=nranks,
        flows_completed=net.completed_count,
        flows_cancelled=cancelled[0],
        sim_time=engine.now,
        wall_s=wall,
        stats=net.stats(),
    )
