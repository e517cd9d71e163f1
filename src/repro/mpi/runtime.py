"""The Job runtime: drive one generator program per rank on the DES.

A :class:`Job` wires together the engine, the fluid-flow network, the
machine and the transport, instantiates one
:class:`~repro.mpi.context.RankContext` + program generator per rank,
and runs everything to completion. The result records the simulated
makespan (max rank finish time), per-rank return values, traffic
counters and the trace.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import DeadlockError, SimulationError
from ..machine import Machine
from ..sim import Engine, FlowNetwork, NullTrace, Proc, RngStreams, Trace
from ..sim.faults import FaultPlan
from .comm import Communicator
from .context import RankContext
from .counters import TrafficCounters
from .ops import ComputeOp, IrecvOp, IsendOp, RecvOp, SendOp, WaitOp
from .reliable import ReliableConfig, ReliableTransport
from .request import Request
from .transport import Transport

__all__ = ["Job", "JobResult"]

_BLOCKED = object()


class JobResult:
    """Outcome of one simulated run."""

    def __init__(
        self,
        time: float,
        rank_results: List,
        rank_finish_times: List[float],
        counters: TrafficCounters,
        trace: Trace,
        flows_completed: int,
        solver_stats=None,
    ):
        self.time = time
        self.rank_results = rank_results
        self.rank_finish_times = rank_finish_times
        self.counters = counters
        self.trace = trace
        self.flows_completed = flows_completed
        self.solver_stats = solver_stats

    def bandwidth(self, nbytes: int) -> float:
        """Broadcast processing rate in bytes/s, the paper's metric."""
        if self.time <= 0:
            raise SimulationError("job finished in zero simulated time")
        return nbytes / self.time

    def __repr__(self) -> str:
        return (
            f"<JobResult t={self.time:.6g}s ranks={len(self.rank_results)} "
            f"msgs={self.counters.messages}>"
        )


class _Continuation:
    """Resume hook for a blocked rank; fires exactly once."""

    __slots__ = ("job", "idx", "fired")

    def __init__(self, job: "Job", idx: int):
        self.job = job
        self.idx = idx
        self.fired = False

    def resume(self, value) -> None:
        if self.fired:
            raise SimulationError(
                f"rank {self.idx} resumed twice from the same blocking point"
            )
        self.fired = True
        self.job._resume(self.idx, value)


class Job:
    """One program per rank, run to completion on the simulated machine."""

    def __init__(
        self,
        machine: Machine,
        program_factory: Callable[[RankContext], object],
        comm: Optional[Communicator] = None,
        buffers: Optional[List] = None,
        trace: Optional[Trace] = None,
        working_set: int = 0,
        rng: Optional[RngStreams] = None,
        faults: Optional[FaultPlan] = None,
        reliable=None,
    ):
        """``faults`` attaches a :class:`~repro.sim.faults.FaultPlan` to
        the transport; ``reliable`` opts into the ARQ layer — pass
        ``True`` for :class:`~repro.mpi.reliable.ReliableConfig` defaults
        or a config instance for tuned timeouts/budgets."""
        self.machine = machine
        self.comm = comm if comm is not None else Communicator.world(machine.nranks)
        self.engine = Engine()
        self.flownet = FlowNetwork(self.engine)
        self.counters = TrafficCounters()
        self.trace = trace if trace is not None else NullTrace()
        if reliable:
            config = reliable if isinstance(reliable, ReliableConfig) else None
            self.transport = ReliableTransport(
                self.engine,
                self.flownet,
                machine,
                self.trace,
                self.counters,
                rng=rng,
                faults=faults,
                config=config,
            )
        else:
            self.transport = Transport(
                self.engine,
                self.flownet,
                machine,
                self.trace,
                self.counters,
                rng=rng,
                faults=faults,
            )
        if working_set:
            machine.set_working_set(working_set)

        self.contexts: List[RankContext] = []
        self.procs: List[Proc] = []
        for local in range(self.comm.size):
            glob = self.comm.to_global(local)
            buf = buffers[local] if buffers is not None else None
            ctx = RankContext(glob, self.comm, buffer=buf)
            self.contexts.append(ctx)
            gen = program_factory(ctx)
            self.procs.append(Proc(f"rank{local}", gen))
        self._finish_times: List[Optional[float]] = [None] * self.comm.size
        self._ran = False

    # -- execution -----------------------------------------------------------
    def run(self) -> JobResult:
        """Run all rank programs to completion; raises on deadlock."""
        if self._ran:
            raise SimulationError("Job.run() may only be called once")
        self._ran = True
        for idx in range(len(self.procs)):
            # Kick every program at t=0 (FIFO order: rank 0 first).
            self.engine.post(0.0, self._resume, idx, None)
        self.engine.run()
        unfinished = [p for p in self.procs if not p.finished]
        if unfinished:
            blocked = [repr(p) for p in unfinished]
            blocked.extend(self.transport.blocked_summary())
            blocked.extend(
                f"injected {line}" for line in self.transport.fault_summary()
            )
            raise DeadlockError(blocked)
        makespan = max(t for t in self._finish_times)
        return JobResult(
            time=makespan,
            rank_results=[p.result for p in self.procs],
            rank_finish_times=list(self._finish_times),
            counters=self.counters,
            trace=self.trace,
            flows_completed=self.flownet.completed_count,
            solver_stats=self.flownet.stats(),
        )

    # -- program driving ----------------------------------------------------
    def _resume(self, idx: int, value) -> None:
        proc = self.procs[idx]
        while True:
            outcome = proc.advance(value)
            if outcome.done:
                self._finish_times[idx] = self.engine.now
                return
            result = self._execute(idx, outcome.value)
            if result is _BLOCKED:
                return
            value = result

    def _execute(self, idx: int, op):
        """Run one yielded operation; immediate result or _BLOCKED."""
        glob = self.comm.to_global(idx)
        proc = self.procs[idx]

        if isinstance(op, IsendOp):
            req = self._make_send(glob, op)
            self.transport.post_send(req)
            return req
        if isinstance(op, IrecvOp):
            req = self._make_recv(glob, op)
            self.transport.post_recv(req)
            return req
        if isinstance(op, SendOp):
            req = self._make_send(glob, op)
            self.transport.post_send(req)
            if req.complete:
                return None
            proc.blocked_on = f"send to {op.dst} tag={op.tag}"
            cont = _Continuation(self, idx)
            req.on_complete(lambda r: cont.resume(None))
            return _BLOCKED
        if isinstance(op, RecvOp):
            req = self._make_recv(glob, op)
            self.transport.post_recv(req)
            if req.complete:
                return req.status
            proc.blocked_on = f"recv from {op.src} tag={op.tag}"
            cont = _Continuation(self, idx)
            req.on_complete(lambda r: cont.resume(r.status))
            return _BLOCKED
        if isinstance(op, WaitOp):
            requests = op.requests
            for r in requests:
                if not isinstance(r, Request):
                    raise SimulationError(
                        f"WaitOp expects Request objects, got {type(r).__name__}"
                    )
            remaining = sum(1 for r in requests if not r.complete)
            if remaining == 0:
                return [r.status for r in requests]
            proc.blocked_on = f"waitall({len(requests)} reqs, {remaining} pending)"
            cont = _Continuation(self, idx)
            state = {"remaining": remaining}

            def one_done(_req, state=state, cont=cont, requests=requests):
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    cont.resume([r.status for r in requests])

            for r in requests:
                if not r.complete:
                    r.on_complete(one_done)
            return _BLOCKED
        if isinstance(op, ComputeOp):
            proc.blocked_on = f"compute({op.seconds}s)"
            cont = _Continuation(self, idx)
            self.engine.post(op.seconds, cont.resume, None)
            return _BLOCKED
        raise SimulationError(
            f"rank {idx} yielded an unknown operation: {op!r} "
            "(programs must yield repro.mpi op descriptors)"
        )

    # -- request construction ------------------------------------------------
    @staticmethod
    def _make_send(owner: int, op: SendOp) -> Request:
        return Request(
            "send",
            owner=owner,
            peer=op.dst,
            tag=op.tag,
            nbytes=op.nbytes,
            buffer=op.buffer,
            disp=op.disp,
            chunks=op.chunks,
        )

    @staticmethod
    def _make_recv(owner: int, op: RecvOp) -> Request:
        return Request(
            "recv",
            owner=owner,
            peer=op.src,
            tag=op.tag,
            nbytes=op.nbytes,
            buffer=op.buffer,
            disp=op.disp,
        )
