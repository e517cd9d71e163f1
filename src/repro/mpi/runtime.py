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
from ..sim import Engine, FlowNetwork, NullTrace, Proc, Trace
from ..sim.faults import FaultPlan
from ..sim.process import BLOCKED
from .comm import Communicator
from .context import RankContext
from .counters import TrafficCounters
from .ops import ComputeOp, IrecvOp, IsendOp, RecvOp, SendOp, WaitOp
from .reliable import ReliableTransport
from .request import Request
from .transport import Transport

__all__ = ["Job", "JobResult"]


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


class _Waiter:
    """A blocked rank's resume hook: the completion callback of the
    requests it waits on (the engine callback for a compute). It counts
    those completions down and resumes the rank exactly once, with the
    request's status (None for a send) or a waitall's status list."""

    __slots__ = ("job", "idx", "requests", "remaining")

    def __init__(
        self, job: "Job", idx: int, requests: tuple = (), remaining: int = 1
    ):
        self.job = job
        self.idx = idx
        self.requests = requests  # a waitall's requests; () otherwise
        self.remaining = remaining

    def __call__(self, req: Optional[Request] = None) -> None:
        self.remaining -= 1
        if self.remaining > 0:
            return
        if self.remaining < 0:
            raise SimulationError(
                f"rank {self.idx} resumed twice from the same blocking point"
            )
        if self.requests:
            value = [r.status for r in self.requests]
        else:
            value = None if req is None else req.status
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
        faults: Optional[FaultPlan] = None,
    ):
        """A non-zero ``faults`` plan runs on the fault-injecting ARQ
        transport (:class:`~repro.mpi.reliable.ReliableTransport`); no
        plan or the zero plan, on the plain one."""
        self.machine = machine
        self.comm = comm if comm is not None else Communicator.world(machine.nranks)
        self.engine = Engine()
        self.flownet = FlowNetwork(self.engine)
        self.counters = TrafficCounters()
        self.trace = trace if trace is not None else NullTrace()
        args = (self.engine, self.flownet, machine, self.trace, self.counters)
        if faults is not None and not faults.is_zero:
            self.transport = ReliableTransport(*args, faults=faults)
        else:
            self.transport = Transport(*args)
        if working_set:
            machine.set_working_set(working_set)

        self.contexts: List[RankContext] = []
        self.procs: List[Proc] = []
        self._ranks = [self.comm.to_global(i) for i in range(self.comm.size)]
        for local, glob in enumerate(self._ranks):
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
        unfinished = [repr(p) for p in self.procs if not p.finished]
        if unfinished:
            notes = self.transport.blocked_summary()
            if isinstance(self.transport, ReliableTransport):
                notes.extend(
                    f"injected {line}" for line in self.transport.fault_summary()
                )
            raise DeadlockError(unfinished, notes=notes)
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
        if self.procs[idx].drive(value, idx, self._execute):
            self._finish_times[idx] = self.engine.now

    def _execute(self, idx: int, op):
        """Run one yielded operation; its immediate result or BLOCKED."""
        kind = type(op)
        if kind is SendOp or kind is IsendOp:
            dst, nbytes, tag, buffer, disp, chunks = op
            req = Request(
                "send", self._ranks[idx], dst, tag, nbytes, buffer, disp, chunks
            )
            self.transport.post_send(req)
            if kind is IsendOp:
                return req
            if req.complete:
                return None
            self.procs[idx].blocked_on = f"send to {dst} tag={tag}"
            req.on_complete(_Waiter(self, idx))
            return BLOCKED
        if kind is RecvOp or kind is IrecvOp:
            src, nbytes, tag, buffer, disp = op
            req = Request("recv", self._ranks[idx], src, tag, nbytes, buffer, disp)
            self.transport.post_recv(req)
            if kind is IrecvOp:
                return req
            if req.complete:
                return req.status
            self.procs[idx].blocked_on = f"recv from {src} tag={tag}"
            req.on_complete(_Waiter(self, idx))
            return BLOCKED
        if kind is WaitOp:
            requests = op.requests
            remaining = 0
            for r in requests:
                if not isinstance(r, Request):
                    raise SimulationError(
                        f"WaitOp expects Request objects, got {type(r).__name__}"
                    )
                if not r.complete:
                    remaining += 1
            if remaining == 0:
                return [r.status for r in requests]
            self.procs[idx].blocked_on = (
                f"waitall({len(requests)} reqs, {remaining} pending)"
            )
            waiter = _Waiter(self, idx, requests, remaining)
            for r in requests:
                if not r.complete:
                    r.on_complete(waiter)
            return BLOCKED
        if kind is ComputeOp:
            self.procs[idx].blocked_on = f"compute({op.seconds}s)"
            self.engine.post(op.seconds, _Waiter(self, idx))
            return BLOCKED
        raise SimulationError(
            f"rank {idx} yielded an unknown operation: {op!r} "
            "(programs must yield repro.mpi op descriptors)"
        )
