"""Schedule extraction: run algorithm programs without a clock.

The :class:`ScheduleExecutor` drives the same generator programs the DES
runtime runs, but with zero-cost buffered sends and no timing model. It
records every transfer (source, destination, bytes, chunk ids) so the
paper's transfer-count arithmetic — 56 vs 44 at P=8, 90 vs 75 at P=10,
``P*(P-1) - (S - P)`` in general — can be measured exactly, cheaply,
for any process count.

Blocking semantics: sends are buffered (they never block, like an eager
protocol with infinite buffering), receives block until a matching send
was issued. This preserves the data-flow dependencies that determine
*what* is transferred while ignoring *when* — which is all counting
needs. Programs that deadlock even under buffered sends (receive cycles)
are reported as :class:`~repro.errors.DeadlockError`.

Besides the transfer list, the executor records one *op log* per rank:
the exact ``(kind, arg)`` sequence of MPI operations the program
executed, with every receive annotated with the send order it matched
and every waitall with the rank-local op indices it covered. That log
is what :func:`repro.sim.replay.compile_schedule` turns into the
vectorized replay engine's program-counter streams. The ranks that
posted an ``ANY_SOURCE`` receive are recorded too: without one, MPI's
non-overtaking rule leaves exactly one match order, the one recorded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import DeadlockError, SimulationError, TruncationError
from ..mpi.comm import Communicator
from ..mpi.context import RankContext
from ..mpi.matching import Envelope, MatchingEngine
from ..mpi.ops import ComputeOp, IrecvOp, IsendOp, RecvOp, SendOp, WaitOp
from ..mpi.request import Request, Status
from ..sim import Proc
from ..sim.process import BLOCKED
from ..sim.replay import (
    OP_COMPUTE,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
)

__all__ = [
    "RecordedSend",
    "ScheduleResult",
    "ScheduleExecutor",
    "extract_schedule",
]


@dataclass(frozen=True)
class RecordedSend:
    """One transfer in the extracted schedule (global ranks)."""

    order: int
    src: int
    dst: int
    nbytes: int
    tag: int
    chunks: Tuple[int, ...]


@dataclass
class ScheduleResult:
    """Everything the counting run observed.

    ``observed`` and ``dep_counts`` record the happens-before structure
    the cost model's round decomposition needs: ``observed[rank]`` lists
    the send orders whose payloads *rank*'s program had consumed (a
    blocking recv returned, or a waitall covering the irecv completed)
    in consumption order, and ``dep_counts[order]`` is how many of the
    sender's observed entries preceded the issue of send *order*. A
    send therefore causally depends on exactly
    ``observed[src][:dep_counts[order]]`` — program order inside a rank,
    message edges across ranks — which is a sound dependency set: an
    unwaited irecv never gates a send.
    """

    sends: List[RecordedSend]
    rank_results: List
    nranks: int
    placement: Optional[object] = None
    observed: Dict[int, List[int]] = field(default_factory=dict)
    dep_counts: Dict[int, int] = field(default_factory=dict)
    # Per-rank executed-op streams (``[kind, arg]`` pairs, see
    # repro.sim.replay's OP_* opcodes) keyed by global rank in kick
    # order; the global ranks that posted an ``ANY_SOURCE`` receive, in
    # first-post order (their match order is timing-dependent); and any
    # other reason the schedule cannot be replayed without the DES
    # (foreign wait requests).
    op_log: Dict[int, List[List]] = field(default_factory=dict)
    any_source_ranks: Tuple[int, ...] = ()
    replay_blockers: Tuple[str, ...] = ()

    @property
    def transfers(self) -> int:
        return len(self.sends)

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self.sends)

    def transfers_by_level(self) -> Tuple[int, int]:
        """(intra_node, inter_node) transfer counts; needs a placement."""
        if self.placement is None:
            raise SimulationError("transfers_by_level needs a placement")
        intra = sum(
            1
            for s in self.sends
            if self.placement.node_of(s.src) == self.placement.node_of(s.dst)
        )
        return intra, len(self.sends) - intra

    def sends_from(self, rank: int) -> List[RecordedSend]:
        return [s for s in self.sends if s.src == rank]

    def sends_to(self, rank: int) -> List[RecordedSend]:
        return [s for s in self.sends if s.dst == rank]


def _describe_request(req: Request) -> str:
    """``recv(src=3, tag=2, nbytes=64)``-style rendering for reports."""
    if req.kind == "recv":
        src = "ANY_SOURCE" if req.peer < 0 else req.peer
        tag = "ANY_TAG" if req.tag < 0 else req.tag
        return f"recv(src={src}, tag={tag}, nbytes={req.nbytes})"
    return f"send(dst={req.peer}, tag={req.tag}, nbytes={req.nbytes})"


class _Parked:
    """A parked rank's resume hook, like :class:`repro.mpi.runtime._Waiter`:
    the completion callback of the blocking receive or the waitall's
    requests it waits on. It counts their completions down and, at zero,
    hands itself back to the executor to observe them and requeue the
    rank."""

    __slots__ = ("executor", "idx", "requests", "remaining", "waitall")

    def __init__(self, executor, idx, requests, remaining, waitall):
        self.executor = executor
        self.idx = idx
        self.requests = requests  # (recv,) for a blocking receive
        self.remaining = remaining
        self.waitall = waitall

    def __call__(self, _req) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.executor._resume(self)


class ScheduleExecutor:
    """Deterministic zero-time executor for rank programs."""

    def __init__(
        self,
        nranks: int,
        program_factory: Callable[[RankContext], object],
        comm: Optional[Communicator] = None,
        buffers: Optional[List] = None,
        placement=None,
    ):
        self.comm = comm if comm is not None else Communicator.world(nranks)
        self.placement = placement
        self.sends: List[RecordedSend] = []
        self._env_order: Dict[int, int] = {}  # envelope seq -> send order
        self.observed: Dict[int, List[int]] = {}  # rank -> consumed send orders
        self.dep_counts: Dict[int, int] = {}  # send order -> observed prefix len
        self._recv_order: Dict[Request, int] = {}  # recv request -> send order
        self.op_log: Dict[int, List[List]] = {}  # rank -> [kind, arg] stream
        self._req_op: Dict[Request, int] = {}  # isend/irecv req -> op index
        self._recv_entry: Dict[Request, List] = {}  # recv req -> log entry
        self._any_source: Dict[int, None] = {}  # ranks posting wildcards
        self._blockers: List[str] = []  # other reasons replay must fall back
        self.matching = [MatchingEngine(r) for r in range(nranks)]
        self.procs: List[Proc] = []
        self.contexts: List[RankContext] = []
        self._parked = [None] * self.comm.size
        self._ready = deque()
        self._wake = {}  # global rank -> local index, for wakeups
        # Local index -> global rank, read on every op: the index is
        # always in range, so skip ``comm.to_global``'s bounds check.
        self._members = self.comm.members
        for local, glob in enumerate(self._members):
            buf = buffers[local] if buffers is not None else None
            ctx = RankContext(glob, self.comm, buffer=buf)
            self.contexts.append(ctx)
            self.procs.append(Proc(f"rank{local}", program_factory(ctx)))
            self._wake[glob] = local
            self.observed[glob] = []
            self.op_log[glob] = []

    # -- driving ---------------------------------------------------------
    def run(self) -> ScheduleResult:
        for idx in range(len(self.procs)):
            self._ready.append((idx, None))
        while self._ready:
            idx, value = self._ready.popleft()
            self.procs[idx].drive(value, idx, self._execute)
        unfinished = [
            self._describe_blocked(idx)
            for idx, p in enumerate(self.procs)
            if not p.finished
        ]
        if unfinished:
            notes = [
                eng.describe_blockage()
                for eng in self.matching
                if eng.pending_unexpected
            ]
            raise DeadlockError(unfinished, notes=notes)
        return ScheduleResult(
            sends=self.sends,
            rank_results=[p.result for p in self.procs],
            nranks=self.comm.size,
            placement=self.placement,
            observed=self.observed,
            dep_counts=self.dep_counts,
            op_log=self.op_log,
            any_source_ranks=tuple(self._any_source),
            replay_blockers=tuple(dict.fromkeys(self._blockers)),
        )

    def _describe_blocked(self, idx: int) -> str:
        """Name the rank and the exact op an unfinished program is parked on."""
        glob = self._members[idx]
        parked = self._parked[idx]
        if parked is None:
            return f"rank {glob} never ran to completion ({self.procs[idx]!r})"
        requests = parked.requests
        if not parked.waitall:
            return f"rank {glob} blocked in {_describe_request(requests[0])}"
        pending = [_describe_request(r) for r in requests if not r.complete]
        return (
            f"rank {glob} blocked in waitall on {parked.remaining} of "
            f"{len(requests)} request(s): {', '.join(pending)}"
        )

    # -- op execution ------------------------------------------------------
    def _execute(self, idx: int, op):
        glob = self._members[idx]
        log = self.op_log[glob]
        kind = type(op)
        if kind is SendOp or kind is IsendOp:
            dst, nbytes, tag, buffer, disp, chunks = op
            req = Request("send", glob, dst, tag, nbytes, buffer, disp, chunks)
            if kind is IsendOp:
                self._req_op[req] = len(log)
                entry = [OP_ISEND, -1]
            else:
                entry = [OP_SEND, -1]
            log.append(entry)
            self._do_send(req)
            entry[1] = len(self.sends) - 1  # the order _do_send assigned
            return req if kind is IsendOp else None
        if kind is RecvOp or kind is IrecvOp:
            src, nbytes, tag, buffer, disp = op
            req = Request("recv", glob, src, tag, nbytes, buffer, disp)
            if src < 0:
                self._any_source[glob] = None
            if kind is IrecvOp:
                self._req_op[req] = len(log)
                entry = [OP_IRECV, -1]
            else:
                entry = [OP_RECV, -1]
            log.append(entry)
            self._recv_entry[req] = entry  # filled in when it matches
            env = self.matching[glob].post_recv(req)
            if env is not None:
                self._complete_recv(req, env)
            if kind is IrecvOp:
                return req
            if req.complete:
                self._observe(glob, req)
                return req.status
            parked = self._parked[idx] = _Parked(self, idx, (req,), 1, False)
            req.on_complete(parked)
            return BLOCKED
        if kind is WaitOp:
            requests = op.requests
            members = []
            remaining = 0
            for r in requests:
                member = self._req_op.get(r, -1) if r.owner == glob else -1
                if member < 0:
                    self._blockers.append(
                        f"rank {glob} waits on a request not returned by "
                        f"its own isend/irecv"
                    )
                members.append(member)
                if not r.complete:
                    remaining += 1
            log.append([OP_WAIT, tuple(members)])
            if remaining == 0:
                for r in requests:
                    self._observe(glob, r)
                return [r.status for r in requests]
            parked = _Parked(self, idx, requests, remaining, True)
            self._parked[idx] = parked
            for r in requests:
                if not r.complete:
                    r.on_complete(parked)
            return BLOCKED
        if kind is ComputeOp:
            log.append([OP_COMPUTE, float(op.seconds)])
            return None  # time is free here
        raise SimulationError(f"schedule executor got unknown op {op!r}")

    def _resume(self, parked: _Parked) -> None:
        """Observe a parked rank's completed requests, in order, and
        requeue it with the receive's status or the waitall's list."""
        glob = self._members[parked.idx]
        requests = parked.requests
        for r in requests:
            self._observe(glob, r)
        if parked.waitall:
            value = [r.status for r in requests]
        else:
            value = requests[0].status
        self._parked[parked.idx] = None
        self._ready.append((parked.idx, value))

    def _observe(self, rank: int, req: Request) -> None:
        """Record that *rank*'s program consumed the message behind a
        completed receive (idempotent; sends and unmatched recvs no-op)."""
        order = self._recv_order.pop(req, None)
        if order is not None:
            self.observed[rank].append(order)

    # -- transfer plumbing --------------------------------------------------
    def _do_send(self, req: Request) -> None:
        payload = None
        if req.buffer is not None:
            payload = req.buffer.read(req.disp, req.nbytes)
        self.sends.append(
            RecordedSend(
                order=len(self.sends),
                src=req.owner,
                dst=req.peer,
                nbytes=req.nbytes,
                tag=req.tag,
                chunks=req.chunks,
            )
        )
        order = len(self.sends) - 1
        self.dep_counts[order] = len(self.observed[req.owner])
        env = Envelope(req.owner, req.tag, req.nbytes, (req, payload), len(self.sends))
        self._env_order[env.seq] = order
        req.finish()  # buffered: sends always complete immediately
        recv_req = self.matching[req.peer].arrive(env)
        if recv_req is not None:
            self._complete_recv(recv_req, env)

    def _complete_recv(self, recv_req: Request, env: Envelope) -> None:
        order = self._env_order[env.seq]
        self._recv_order[recv_req] = order
        entry = self._recv_entry.get(recv_req)
        if entry is not None:
            entry[1] = order  # annotate the op log with the matched send
        send_req, payload = env.send_req
        if env.nbytes > recv_req.nbytes:
            raise TruncationError(
                f"message of {env.nbytes} bytes truncates receive of "
                f"{recv_req.nbytes} bytes on rank {recv_req.owner}"
            )
        if recv_req.buffer is not None and payload is not None:
            recv_req.buffer.write(recv_req.disp, payload)
        recv_req.finish(Status(env.src, env.tag, env.nbytes, send_req.chunks))


def extract_schedule(
    nranks: int,
    program_factory: Callable[[RankContext], object],
    comm: Optional[Communicator] = None,
    buffers: Optional[List] = None,
    placement=None,
) -> ScheduleResult:
    """One-call helper: build, run and return the schedule."""
    return ScheduleExecutor(
        nranks, program_factory, comm=comm, buffers=buffers, placement=placement
    ).run()
