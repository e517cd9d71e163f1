"""Exhaustive match-order model checking with dynamic partial-order reduction.

``repro verify`` reads the one match order schedule extraction records.
MPI's non-overtaking rule allows no other unless a rank posts an
``ANY_SOURCE`` receive, and verify flags every rank that does. This
module covers those programs the way ISP/MOPPER-style verifiers do for
real MPI programs: it *explores every distinguishable match order* of a
rank program at small P and proves, per interleaving,

1. **deadlock-freedom** — with a replayable, greedily *minimized*
   witness schedule when a deadlock exists;
2. **payload bit-determinism** — every interleaving terminates with
   identical per-rank final buffers;
3. **wire-counter invariance** — logical message/byte counters are the
   same in every interleaving;
4. **delivery-or-typed-exhaustion under faults** — with a seeded
   :class:`~repro.sim.faults.FaultPlan` attached, every interleaving
   either delivers every message (the ARQ model retries through drop /
   corrupt decisions) or terminates in a typed retry-budget exhaustion
   naming the dead link; never a silent loss.

State-space semantics
---------------------

A *transition* is a macro step of one rank (ISP/POE style): resume the
rank if it was parked on a now-satisfied receive/wait, then advance its
generator — absorbing computes, receive posts, and already-satisfied
waits inline — until it either **issues one send**, **parks** on an
unsatisfied blocking receive/wait, or **finishes**. Sends are buffered
(they never block) and matching reuses
:class:`~repro.mpi.matching.MatchingEngine` verbatim, so a single
maximal run has exactly the semantics of
:class:`~repro.collectives.schedule.ScheduleExecutor`.

Stopping only at sends is sound because receive-*post* timing cannot
change a match outcome here: per-(src, dst) delivery is FIFO and a
rank's posts are program-ordered, so which send an (even wildcard)
receive matches is a function of the *delivery interleaving* alone.
Matching nondeterminism therefore reduces to the relative order of send
transitions racing into a wildcard (``ANY_SOURCE``) receiver — exactly
the pairs the DPOR dependence relation tracks.

DPOR sketch
-----------

Stateless depth-first exploration with persistent (backtrack) sets and
sleep sets (Flanagan-Godefroid). Each executed transition carries a
vector clock (program order + send->consumer edges, the same
happens-before structure the schedule executor's ``observed`` /
``dep_counts`` metadata records); after each maximal run, every pair of
send transitions that is (a) dependent — same destination, different
sources, pattern-compatible with a wildcard receive the destination
posts — and (b) *not* happens-before ordered is a race, and the later
sender is added to the backtrack set of the frame where the earlier
send fired. Sleep sets prune re-exploration of commuting suffixes.
Programs without wildcard receives (the whole registry) have an empty
dependence relation and are covered by a **single** maximal run; a
``naive`` mode (full enumeration over a canonical state fingerprint)
exists purely to measure the reduction and to cross-check the explored
terminal set on wildcard fixtures.

Surfaced as ``repro mc`` (``--collective/--nranks/--grid/--strict/
--json/--max-states``, exit != 0 on violation).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import ConfigurationError, ReproError, TruncationError
from ..mpi.comm import Communicator
from ..mpi.context import RankContext
from ..mpi.matching import Envelope, MatchingEngine
from ..mpi.ops import ANY_TAG, ComputeOp, IrecvOp, IsendOp, RecvOp, SendOp, WaitOp
from ..mpi.request import Request, Status
from ..sim.process import Proc
from ..sim.faults import FaultPlan, LinkRule
from .verify import REGISTRY, Violation

__all__ = [
    "DEFAULT_MAX_STATES",
    "DEFAULT_NBYTES",
    "DEFAULT_MAX_ATTEMPTS",
    "DeadlockWitness",
    "MCReport",
    "MCCheck",
    "MCGridReport",
    "default_mc_plans",
    "buffer_digests",
    "check_program",
    "check_collective",
    "mc_grid",
]

#: Exploration budget per point: distinct states for ``naive``, executed
#: transitions (excluding replays) for ``dpor``. Registry collectives are
#: wildcard-free, so DPOR needs exactly one maximal run — the budget only
#: bites on adversarial wildcard programs.
DEFAULT_MAX_STATES = 20000

#: Small payloads keep per-step buffer hashing cheap; determinism is a
#: bit-level property, so size does not change what the check proves.
DEFAULT_NBYTES = 1024

#: Retry budget of the abstract ARQ send (mirrors the reliable
#: transport's bounded retransmission: budget exhausted => typed failure).
DEFAULT_MAX_ATTEMPTS = 4


# ---------------------------------------------------------------------------
# Controlled execution (one interleaving)
# ---------------------------------------------------------------------------


def _describe_req(req: Request) -> str:
    if req.kind == "recv":
        src = "ANY_SOURCE" if req.peer < 0 else req.peer
        tag = "ANY_TAG" if req.tag < 0 else req.tag
        return f"recv(src={src}, tag={tag}, nbytes={req.nbytes})"
    return f"send(dst={req.peer}, tag={req.tag}, nbytes={req.nbytes})"


class _SendRecord:
    """One delivered logical send (ARQ retries are hidden inside it)."""

    __slots__ = ("order", "src", "dst", "tag", "nbytes", "chunks", "chan_seq", "clock")

    def __init__(
        self,
        order: int,
        src: int,
        dst: int,
        tag: int,
        nbytes: int,
        chunks: Tuple[int, ...],
        chan_seq: int,
        clock: Tuple[int, ...],
    ) -> None:
        self.order = order
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.chunks = chunks
        self.chan_seq = chan_seq  # per-(src, dst) logical message index
        self.clock = clock  # sender's vector clock at issue


class _PRecv:
    __slots__ = ("req",)

    def __init__(self, req: Request) -> None:
        self.req = req


class _PWait:
    __slots__ = ("requests",)

    def __init__(self, requests: List[Request]) -> None:
        self.requests = requests


@dataclass(frozen=True)
class _Transition:
    """One executed macro step (for the trace / race detection)."""

    rank: int
    kind: str  # "send" | "block" | "finish" | "error"
    detail: str
    send: Optional[_SendRecord]
    clock: Tuple[int, ...]
    own: int  # this rank's transition count after the step


#: (src, dst, tag) of a send transition; None for block/finish/error.
_Sig = Optional[Tuple[int, int, int]]

#: A rank's park state: None (runnable), blocked recv, or blocked waitall.
_Park = Optional[Union["_PRecv", "_PWait"]]


def _send_sig(t: _Transition) -> _Sig:
    """(src, dst, tag) of a send transition; None for anything else."""
    if t.send is None:
        return None
    return (t.send.src, t.send.dst, t.send.tag)


class _Execution:
    """One controlled run: the scheduler (explorer) picks which enabled
    rank takes the next macro step. Matching semantics are identical to
    :class:`~repro.collectives.schedule.ScheduleExecutor` (buffered
    sends, shared :class:`MatchingEngine` state machine)."""

    def __init__(
        self,
        nranks: int,
        program_factory: Callable[[RankContext], object],
        buffers: Optional[List[object]] = None,
        faults: Optional[FaultPlan] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        wildcards: Optional[Dict[int, Set[int]]] = None,
    ) -> None:
        self.nranks = nranks
        self.buffers = buffers
        self.faults = faults if faults is not None and not faults.is_zero else None
        self.max_attempts = max_attempts
        # Shared across an exploration so dependence stays stable between
        # replayed branches (wildcard patterns observed anywhere count).
        self.wildcards = wildcards if wildcards is not None else {}
        comm = Communicator.world(nranks)
        self.matching = [MatchingEngine(r) for r in range(nranks)]
        self.procs: List[Proc] = []
        self._parked: List[_Park] = [None] * nranks
        self._resume: List[object] = [None] * nranks
        self._ops_done = [0] * nranks
        self.trace: List[_Transition] = []
        self.sends: List[_SendRecord] = []
        self._chan_seq: Dict[Tuple[int, int], int] = {}
        self._op_index: Dict[Tuple[int, int], int] = {}
        self._recv_order: Dict[Request, int] = {}
        self.clock = [[0] * nranks for _ in range(nranks)]
        self._own = [0] * nranks
        self._buf_digest = [b""] * nranks
        self.sent_msgs = [0] * nranks
        self.sent_bytes = [0] * nranks
        self.recv_msgs = [0] * nranks
        self.recv_bytes = [0] * nranks
        self.injected = {"drop": 0, "dup": 0, "corrupt": 0}
        self.exhausted: Optional[Tuple[int, int, int, int, str]] = None
        self.error: Optional[str] = None
        for rank in range(nranks):
            buf = buffers[rank] if buffers is not None else None
            ctx = RankContext(rank, comm, buffer=buf)
            self.procs.append(Proc(f"rank{rank}", program_factory(ctx)))

    # -- scheduling interface -------------------------------------------
    def _satisfied(self, parked: Union["_PRecv", "_PWait"]) -> bool:
        if isinstance(parked, _PRecv):
            return parked.req.complete
        return all(r.complete for r in parked.requests)

    def enabled_ranks(self) -> List[int]:
        if self.exhausted is not None or self.error is not None:
            return []
        out = []
        for r in range(self.nranks):
            if self.procs[r].finished:
                continue
            parked = self._parked[r]
            if parked is None or self._satisfied(parked):
                out.append(r)
        return out

    def step(self, rank: int) -> _Transition:
        """Run *rank* up to (and including) its next send, park, or end."""
        clock = list(self.clock[rank])
        self._own[rank] += 1
        own = self._own[rank]
        clock[rank] = own

        def consume(req: Request) -> None:
            # Join the matched send's clock: the message edge of the
            # happens-before relation (idempotent, like _observe).
            order = self._recv_order.pop(req, None)
            if order is not None:
                sc = self.sends[order].clock
                for i in range(self.nranks):
                    if sc[i] > clock[i]:
                        clock[i] = sc[i]

        value: object
        parked = self._parked[rank]
        if parked is not None:
            if not self._satisfied(parked):
                raise ConfigurationError(f"stepped parked rank {rank}")
            self._parked[rank] = None
            if isinstance(parked, _PRecv):
                consume(parked.req)
                value = parked.req.status
            else:
                for r in parked.requests:
                    consume(r)
                value = [r.status for r in parked.requests]
        else:
            value = self._resume[rank]
            self._resume[rank] = None
        proc = self.procs[rank]
        kind = "finish"
        detail = f"rank {rank} finished"
        send_rec: Optional[_SendRecord] = None
        try:
            while True:
                outcome = proc.advance(value)
                if outcome.done:
                    break
                op = outcome.value
                self._ops_done[rank] += 1
                if isinstance(op, ComputeOp):
                    value = None
                    continue
                if isinstance(op, (SendOp, IsendOp)):
                    req = Request(
                        "send",
                        owner=rank,
                        peer=op.dst,
                        tag=op.tag,
                        nbytes=op.nbytes,
                        buffer=op.buffer,
                        disp=op.disp,
                        chunks=op.chunks,
                    )
                    self._resume[rank] = req if isinstance(op, IsendOp) else None
                    send_rec = self._do_send(req, tuple(clock))
                    kind = "send"
                    detail = f"rank {rank}: {_describe_req(req)}"
                    if self.exhausted is not None:
                        s, d, tag, attempts, cause = self.exhausted
                        detail += (
                            f" EXHAUSTED after {attempts} attempt(s)"
                            f" ({cause or 'loss'})"
                        )
                    break
                if isinstance(op, (RecvOp, IrecvOp)):
                    req = Request(
                        "recv",
                        owner=rank,
                        peer=op.src,
                        tag=op.tag,
                        nbytes=op.nbytes,
                        buffer=op.buffer,
                        disp=op.disp,
                    )
                    if op.src < 0:
                        self.wildcards.setdefault(rank, set()).add(op.tag)
                    env = self.matching[rank].post_recv(req)
                    if env is not None:
                        self._complete_recv(req, env)
                    if isinstance(op, IrecvOp):
                        value = req
                        continue
                    if req.complete:
                        consume(req)
                        value = req.status
                        continue
                    self._parked[rank] = _PRecv(req)
                    kind = "block"
                    detail = f"rank {rank} blocked in {_describe_req(req)}"
                    break
                if isinstance(op, WaitOp):
                    if all(r.complete for r in op.requests):
                        for r in op.requests:
                            consume(r)
                        value = [r.status for r in op.requests]
                        continue
                    self._parked[rank] = _PWait(tuple(op.requests))
                    pending = sum(1 for r in op.requests if not r.complete)
                    kind = "block"
                    detail = (
                        f"rank {rank} blocked in waitall on {pending} of "
                        f"{len(op.requests)} request(s)"
                    )
                    break
                raise ConfigurationError(f"model checker got unknown op {op!r}")
        except ReproError as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            kind = "error"
            detail = f"rank {rank}: {self.error}"
        self.clock[rank] = clock
        t = _Transition(
            rank=rank,
            kind=kind,
            detail=detail,
            send=send_rec,
            clock=tuple(clock),
            own=own,
        )
        self.trace.append(t)
        return t

    # -- transfer plumbing ----------------------------------------------
    def _do_send(self, req: Request, clock: Tuple[int, ...]) -> Optional[_SendRecord]:
        src, dst = req.owner, req.peer
        payload = None
        if req.buffer is not None:
            payload = req.buffer.read(req.disp, req.nbytes)
        if self.faults is not None:
            # Abstract ARQ: each attempt burns one per-link op index and a
            # fresh fault coin; corrupt attempts are checksum-discarded
            # like drops, duplicates are delivered once (receiver dedup).
            delivered = False
            cause = ""
            attempts = 0
            for _ in range(self.max_attempts):
                attempts += 1
                oi = self._op_index.get((src, dst), 0)
                self._op_index[(src, dst)] = oi + 1
                decision = self.faults.decide(src, dst, req.tag, oi)
                if decision.duplicate:
                    self.injected["dup"] += 1
                if decision.drop:
                    self.injected["drop"] += 1
                    cause = decision.cause or "drop"
                    continue
                if decision.corrupt:
                    self.injected["corrupt"] += 1
                    cause = decision.cause or "corrupt"
                    continue
                delivered = True
                break
            if not delivered:
                self.exhausted = (src, dst, req.tag, attempts, cause)
                req.finish()
                return None
        else:
            oi = self._op_index.get((src, dst), 0)
            self._op_index[(src, dst)] = oi + 1
        chan_seq = self._chan_seq.get((src, dst), 0)
        self._chan_seq[(src, dst)] = chan_seq + 1
        order = len(self.sends)
        rec = _SendRecord(
            order, src, dst, req.tag, req.nbytes, req.chunks, chan_seq, clock
        )
        self.sends.append(rec)
        self.sent_msgs[src] += 1
        self.sent_bytes[src] += req.nbytes
        req.finish()  # buffered: sends always complete immediately
        env = Envelope(src, req.tag, req.nbytes, (rec, payload), order + 1)
        recv_req = self.matching[dst].arrive(env)
        if recv_req is not None:
            self._complete_recv(recv_req, env)
        return rec

    def _complete_recv(self, recv_req: Request, env: Envelope) -> None:
        rec, payload = env.send_req
        if env.nbytes > recv_req.nbytes:
            raise TruncationError(
                f"message of {env.nbytes} bytes truncates receive of "
                f"{recv_req.nbytes} bytes on rank {recv_req.owner}"
            )
        if recv_req.buffer is not None and payload is not None:
            recv_req.buffer.write(recv_req.disp, payload)
            h = hashlib.sha256()
            h.update(self._buf_digest[recv_req.owner])
            h.update(recv_req.disp.to_bytes(8, "little"))
            h.update(payload.tobytes())
            self._buf_digest[recv_req.owner] = h.digest()
        self.recv_msgs[recv_req.owner] += 1
        self.recv_bytes[recv_req.owner] += env.nbytes
        self._recv_order[recv_req] = rec.order
        recv_req.finish(Status(env.src, env.tag, env.nbytes, rec.chunks))

    # -- terminal classification ----------------------------------------
    def status(self) -> str:
        if self.error is not None:
            return "error"
        if self.exhausted is not None:
            return "exhausted"
        if all(p.finished for p in self.procs):
            return "done"
        if not self.enabled_ranks():
            return "deadlock"
        return "running"

    def blocked_summary(self) -> List[str]:
        lines = []
        for r in range(self.nranks):
            if self.procs[r].finished:
                continue
            parked = self._parked[r]
            if isinstance(parked, _PRecv):
                lines.append(f"rank {r} blocked in {_describe_req(parked.req)}")
            elif isinstance(parked, _PWait):
                pending = [
                    _describe_req(q) for q in parked.requests if not q.complete
                ]
                lines.append(
                    f"rank {r} blocked in waitall on {len(pending)} of "
                    f"{len(parked.requests)} request(s): {', '.join(pending)}"
                )
            else:
                lines.append(f"rank {r} never ran to completion")
        lines.extend(
            eng.describe_blockage()
            for eng in self.matching
            if eng.pending_unexpected
        )
        return lines

    def payload_signature(self) -> Optional[Tuple[str, ...]]:
        if self.buffers is None:
            return None
        return buffer_digests(self.buffers)

    def wire_signature(self) -> Tuple[object, ...]:
        return (
            tuple(self.sent_msgs),
            tuple(self.sent_bytes),
            tuple(self.recv_msgs),
            tuple(self.recv_bytes),
        )

    def fingerprint(self) -> Tuple[object, ...]:
        """Canonical state key for naive-mode deduplication.

        Interleaving-invariant identifiers only: per-rank program
        positions and park signatures, matching-engine contents keyed by
        per-link logical sequence numbers (never global issue order),
        and the rolling per-rank buffer-write digests.
        """
        ranks = []
        for r in range(self.nranks):
            if self.procs[r].finished:
                st: Tuple[object, ...] = ("F",)
            else:
                parked = self._parked[r]
                if parked is None:
                    st = ("R",)
                elif isinstance(parked, _PRecv):
                    st = ("pr", parked.req.complete)
                else:
                    st = ("pw", sum(1 for q in parked.requests if not q.complete))
            ranks.append((self._ops_done[r],) + st)
        engines = []
        for eng in self.matching:
            posted = tuple((q.peer, q.tag, q.nbytes) for q in eng.posted)
            unexpected = tuple(
                sorted(
                    (e.send_req[0].src, e.send_req[0].chan_seq, e.tag, e.nbytes)
                    for e in eng.unexpected
                )
            )
            engines.append((posted, unexpected))
        return (
            tuple(ranks),
            tuple(engines),
            tuple(self._buf_digest),
            self.exhausted is not None,
            self.error,
        )


def buffer_digests(buffers: Sequence[object]) -> Tuple[str, ...]:
    """Per-rank SHA-256 of each buffer's full contents (hex)."""
    out = []
    for buf in buffers:
        data = buf.read(0, buf.nbytes)
        out.append(hashlib.sha256(data.tobytes()).hexdigest())
    return tuple(out)


# ---------------------------------------------------------------------------
# Witness / report records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeadlockWitness:
    """A replayable schedule (rank choice per step) ending in deadlock."""

    schedule: Tuple[int, ...]
    steps: Tuple[str, ...]
    blocked: Tuple[str, ...]
    minimized: bool

    def describe(self) -> str:
        lines = [
            f"{'minimized ' if self.minimized else ''}deadlock witness "
            f"({len(self.schedule)} step(s)): "
            + " -> ".join(str(r) for r in self.schedule)
        ]
        for i, step in enumerate(self.steps):
            lines.append(f"  step {i}: {step}")
        for b in self.blocked:
            lines.append(f"  blocked: {b}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()

    def to_dict(self) -> Dict[str, object]:
        return {
            "schedule": list(self.schedule),
            "steps": list(self.steps),
            "blocked": list(self.blocked),
            "minimized": self.minimized,
        }


@dataclass
class MCReport:
    """Everything one model-checking run concluded."""

    collective: str
    nranks: int
    nbytes: int
    root: int
    mode: str  # "dpor" | "naive"
    plan: Optional[str] = None  # fault-plan name, if any
    states: int = 0
    transitions: int = 0  # total executed steps, replays included
    executions: int = 0  # maximal interleavings examined
    terminals: int = 0  # distinct terminal outcomes
    complete: bool = True
    violations: List[Violation] = field(default_factory=list)
    witness: Optional[DeadlockWitness] = None
    outcomes: Dict[str, int] = field(default_factory=dict)
    payload_digest: Optional[Tuple[str, ...]] = None
    wire: Optional[Dict[str, int]] = None
    injected: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "collective": self.collective,
            "nranks": self.nranks,
            "nbytes": self.nbytes,
            "root": self.root,
            "mode": self.mode,
            "plan": self.plan,
            "states": self.states,
            "transitions": self.transitions,
            "executions": self.executions,
            "terminals": self.terminals,
            "complete": self.complete,
            "ok": self.ok,
            "violations": [str(v) for v in self.violations],
            "outcomes": dict(sorted(self.outcomes.items())),
            "payload_digest": (
                list(self.payload_digest) if self.payload_digest else None
            ),
            "wire": self.wire,
            "injected": dict(sorted(self.injected.items())),
            "witness": self.witness.to_dict() if self.witness else None,
        }

    def describe(self) -> str:
        plan = f", plan={self.plan}" if self.plan else ""
        lines = [
            f"{self.collective}: P={self.nranks}, nbytes={self.nbytes}, "
            f"root={self.root}, mode={self.mode}{plan}"
        ]
        lines.append(
            f"  {self.states} state(s), {self.executions} interleaving(s), "
            f"{self.transitions} transition(s)"
            + ("" if self.complete else " [budget exhausted, INCOMPLETE]")
        )
        for outcome, count in sorted(self.outcomes.items()):
            lines.append(f"  terminal {outcome}: x{count}")
        for v in self.violations:
            lines.append(f"  VIOLATION {v}")
        if self.witness is not None:
            lines.extend("  " + ln for ln in self.witness.describe().splitlines())
        lines.append(f"  verdict: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


class _Frame:
    """Per-depth DPOR bookkeeping for the state *before* choice i."""

    __slots__ = ("enabled", "backtrack", "done", "sleep", "sigs")

    def __init__(self, enabled: FrozenSet[int], sleep: Dict[int, _Sig]) -> None:
        self.enabled = enabled
        self.backtrack: Set[int] = set()
        self.done: Set[int] = set()
        self.sleep = sleep  # rank -> its explored transition's send sig
        self.sigs: Dict[int, _Sig] = {}


class _Explorer:
    def __init__(
        self,
        build: Callable[[Dict[int, Set[int]]], _Execution],
        nranks: int,
        mode: str,
        max_states: int,
    ) -> None:
        self.build = build
        self.nranks = nranks
        self.mode = mode
        self.max_states = max_states
        self.wildcards: Dict[int, Set[int]] = {}
        self.states = 0
        self.transitions = 0
        self.executions = 0
        self.complete = True
        self.stop = False
        self.terminals: Dict[Tuple[object, ...], Tuple[int, ...]] = {}
        self.outcomes: Dict[str, int] = {}
        self.deadlock: Optional[Tuple[Tuple[int, ...], List[str]]] = None
        self.error: Optional[Tuple[Tuple[int, ...], str]] = None
        self.injected = {"drop": 0, "dup": 0, "corrupt": 0}
        self.last_exec: Optional[_Execution] = None

    # -- shared plumbing -------------------------------------------------
    def _fresh(self) -> _Execution:
        return self.build(self.wildcards)

    def _replay(self, choices: Sequence[int]) -> Optional[_Execution]:
        """Re-execute a choice prefix; None when a choice is not enabled."""
        ex = self._fresh()
        for rank in choices:
            if rank not in ex.enabled_ranks():
                return None
            ex.step(rank)
            self.transitions += 1
        return ex

    def _dependent(self, a: _SendRecord, b: _SendRecord) -> bool:
        """Sends race iff a wildcard receive at their common destination
        could match either (per-src FIFO orders everything else)."""
        if a.dst != b.dst or a.src == b.src:
            return False
        patterns = self.wildcards.get(a.dst)
        if not patterns:
            return False
        for want in patterns:
            if want == ANY_TAG or (want == a.tag and want == b.tag):
                return True
        return False

    def _sig_independent(self, sig_a: _Sig, sig_b: _Sig) -> bool:
        # Non-send macro steps commute with everything (receive-post
        # timing is match-invariant here; see module docstring).
        if sig_a is None or sig_b is None:
            return True
        a = _SendRecord(0, sig_a[0], sig_a[1], sig_a[2], 0, (), 0, ())
        b = _SendRecord(0, sig_b[0], sig_b[1], sig_b[2], 0, (), 0, ())
        return not self._dependent(a, b)

    def _process_terminal(self, ex: _Execution, choices: Sequence[int]) -> None:
        status = ex.status()
        if status == "running":
            return  # branch cut by the sleep set or the budget
        self.executions += 1
        self.last_exec = ex
        for k, v in ex.injected.items():
            self.injected[k] += v
        if status == "error":
            self.outcomes["error"] = self.outcomes.get("error", 0) + 1
            if self.error is None:
                self.error = (tuple(choices), ex.error or "error")
            self.stop = True
            return
        if status == "deadlock":
            self.outcomes["deadlock"] = self.outcomes.get("deadlock", 0) + 1
            if self.deadlock is None:
                self.deadlock = (tuple(choices), ex.blocked_summary())
            self.stop = True
            return
        if status == "exhausted":
            src, dst, tag, attempts, cause = ex.exhausted  # type: ignore[misc]
            key: Tuple[object, ...] = ("exhausted", src, dst, tag)
            label = f"exhausted {src}->{dst} tag={tag}"
        else:
            key = ("done", ex.payload_signature(), ex.wire_signature())
            label = "done"
        self.outcomes[label] = self.outcomes.get(label, 0) + 1
        self.terminals.setdefault(key, tuple(choices))

    # -- DPOR ------------------------------------------------------------
    def run_dpor(self) -> None:
        frames: List[_Frame] = []
        choices: List[int] = []
        ex = self._fresh()
        self._extend(ex, frames, choices, {})
        while True:
            self._process_terminal(ex, choices)
            if self.stop:
                return
            self._detect_races(ex, frames)
            depth = None
            while frames:
                f = frames[-1]
                todo = sorted(f.backtrack - f.done - set(f.sleep))
                if todo:
                    depth = len(frames) - 1
                    break
                frames.pop()
                choices.pop()
            if depth is None:
                return
            if self.states >= self.max_states:
                self.complete = False
                return
            replayed = self._replay(choices[:depth])
            if replayed is None:  # pragma: no cover - replay is deterministic
                raise ConfigurationError("DPOR replay diverged")
            ex = replayed
            f = frames[depth]
            del choices[depth:]
            chosen = todo[0]
            t = ex.step(chosen)
            self.states += 1
            self.transitions += 1
            sig = _send_sig(t)
            explored = dict(f.sleep)
            explored.update(
                {r: s for r, s in f.sigs.items() if r in f.done and r != chosen}
            )
            f.done.add(chosen)
            f.sigs[chosen] = sig
            choices.append(chosen)
            sleep = {
                r: s
                for r, s in explored.items()
                if r != chosen and self._sig_independent(s, sig)
            }
            self._extend(ex, frames, choices, sleep)

    def _extend(
        self,
        ex: _Execution,
        frames: List[_Frame],
        choices: List[int],
        sleep: Dict[int, _Sig],
    ) -> None:
        """Grow one maximal branch, lowest enabled non-sleeping rank first."""
        while True:
            enabled = ex.enabled_ranks()
            if not enabled:
                return
            if self.states >= self.max_states:
                self.complete = False
                return
            candidates = [r for r in enabled if r not in sleep]
            if not candidates:
                return  # every continuation is a commuted re-exploration
            chosen = candidates[0]
            frame = _Frame(frozenset(enabled), dict(sleep))
            frame.backtrack.add(chosen)
            frames.append(frame)
            t = ex.step(chosen)
            self.states += 1
            self.transitions += 1
            sig = _send_sig(t)
            frame.done.add(chosen)
            frame.sigs[chosen] = sig
            choices.append(chosen)
            sleep = {
                r: s for r, s in sleep.items() if self._sig_independent(s, sig)
            }

    def _detect_races(self, ex: _Execution, frames: List[_Frame]) -> None:
        """Flanagan-Godefroid race pass: for each send, find the latest
        earlier dependent send not ordered by happens-before and add the
        later sender to the backtrack set where the earlier one fired."""
        trace = ex.trace
        for j in range(len(trace)):
            tj = trace[j]
            if tj.send is None:
                continue
            for i in range(j - 1, -1, -1):
                ti = trace[i]
                if ti.send is None or ti.rank == tj.rank:
                    continue
                if not self._dependent(ti.send, tj.send):
                    continue
                if tj.clock[ti.rank] >= ti.own:
                    break  # causally ordered: no race, nothing earlier either
                frame = frames[i]
                if tj.rank in frame.enabled:
                    frame.backtrack.add(tj.rank)
                else:
                    frame.backtrack |= set(frame.enabled)
                break

    # -- naive enumeration ----------------------------------------------
    def run_naive(self) -> None:
        """Full interleaving enumeration over canonical state fingerprints
        (the DPOR-free baseline the reduction is measured against)."""
        seen: Set[Tuple] = set()
        stack: List[Tuple[int, ...]] = [()]
        while stack and not self.stop:
            choices = stack.pop()
            ex = self._replay(choices)
            if ex is None:  # pragma: no cover - children are enabled by construction
                continue
            fp = ex.fingerprint()
            if fp in seen:
                continue
            if self.states >= self.max_states:
                self.complete = False
                return
            seen.add(fp)
            self.states += 1
            enabled = ex.enabled_ranks()
            if not enabled:
                self._process_terminal(ex, choices)
                continue
            for rank in reversed(enabled):
                stack.append(choices + (rank,))

    # -- witness minimization --------------------------------------------
    def minimize_deadlock(self) -> Optional[DeadlockWitness]:
        if self.deadlock is None:
            return None
        schedule = list(self.deadlock[0])
        changed = True
        while changed:
            changed = False
            for i in range(len(schedule) - 1, -1, -1):
                candidate = schedule[:i] + schedule[i + 1 :]
                ex = self._replay(candidate)
                if ex is not None and ex.status() == "deadlock":
                    schedule = candidate
                    changed = True
        ex = self._replay(schedule)
        steps: Tuple[str, ...] = ()
        blocked: Tuple[str, ...] = tuple(self.deadlock[1])
        if ex is not None:
            steps = tuple(t.detail for t in ex.trace)
            blocked = tuple(ex.blocked_summary())
        return DeadlockWitness(
            schedule=tuple(schedule),
            steps=steps,
            blocked=blocked,
            minimized=True,
        )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def check_program(
    nranks: int,
    make_factory: Callable[[], Callable[[RankContext], object]],
    make_buffers: Optional[Callable[[], List]] = None,
    name: str = "<program>",
    nbytes: int = 0,
    root: int = 0,
    mode: str = "dpor",
    max_states: int = DEFAULT_MAX_STATES,
    faults: Optional[FaultPlan] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> MCReport:
    """Model-check an arbitrary rank program.

    ``make_factory``/``make_buffers`` are *builders of builders*: every
    explored interleaving replays the program from its initial state, so
    fresh generators and fresh buffers are constructed per execution.
    """
    if mode not in ("dpor", "naive"):
        raise ConfigurationError(f"unknown exploration mode {mode!r}")
    if nranks < 1:
        raise ConfigurationError(f"model checking needs nranks >= 1, got {nranks}")

    def build(wildcards: Dict[int, Set[int]]) -> _Execution:
        return _Execution(
            nranks,
            make_factory(),
            buffers=make_buffers() if make_buffers is not None else None,
            faults=faults,
            max_attempts=max_attempts,
            wildcards=wildcards,
        )

    explorer = _Explorer(build, nranks, mode, max_states)
    if mode == "dpor":
        explorer.run_dpor()
    else:
        explorer.run_naive()
    report = MCReport(
        collective=name,
        nranks=nranks,
        nbytes=nbytes,
        root=root,
        mode=mode,
        plan=faults.name if faults is not None and not faults.is_zero else None,
        states=explorer.states,
        transitions=explorer.transitions,
        executions=explorer.executions,
        terminals=len(explorer.terminals),
        complete=explorer.complete,
        outcomes=dict(explorer.outcomes),
        injected=dict(explorer.injected),
    )
    if explorer.error is not None:
        report.violations.append(
            Violation(
                kind="modelcheck-error",
                detail=(
                    f"interleaving {list(explorer.error[0])} raised "
                    f"{explorer.error[1]}"
                ),
            )
        )
    if explorer.deadlock is not None:
        report.witness = explorer.minimize_deadlock()
        blocked = (
            report.witness.blocked if report.witness else explorer.deadlock[1]
        )
        report.violations.append(
            Violation(
                kind="deadlock",
                detail=(
                    f"reachable deadlock with {len(blocked)} blocked "
                    f"rank(s): {'; '.join(blocked)}"
                ),
            )
        )
    done_keys = [k for k in explorer.terminals if k[0] == "done"]
    exhausted_keys = [k for k in explorer.terminals if k[0] == "exhausted"]
    if len(done_keys) > 1:
        payloads = {k[1] for k in done_keys}
        wires = {k[2] for k in done_keys}
        first, second = (explorer.terminals[k] for k in done_keys[:2])
        what = []
        if len(payloads) > 1:
            what.append("final payloads")
        if len(wires) > 1:
            what.append("wire counters")
        report.violations.append(
            Violation(
                kind="nondeterminism",
                detail=(
                    f"{' and '.join(what) or 'terminal states'} differ across "
                    f"interleavings (e.g. schedules {list(first)} vs "
                    f"{list(second)})"
                ),
            )
        )
    if done_keys and exhausted_keys:
        report.violations.append(
            Violation(
                kind="fault-divergence",
                detail=(
                    "termination outcome depends on match order: some "
                    "interleavings deliver, others exhaust the retry budget"
                ),
            )
        )
    if exhausted_keys and (faults is None or not faults.lossy):
        report.violations.append(
            Violation(
                kind="exhaustion",
                detail="retry budget exhausted under a plan that loses nothing",
            )
        )
    if len(done_keys) == 1:
        key = done_keys[0]
        report.payload_digest = key[1]
        sent_msgs, sent_bytes, recv_msgs, recv_bytes = key[2]
        report.wire = {
            "messages": sum(sent_msgs),
            "bytes": sum(sent_bytes),
            "delivered_messages": sum(recv_msgs),
            "delivered_bytes": sum(recv_bytes),
        }
    return report


def _collective_buffers(name: str, nranks: int, nbytes: int) -> List[object]:
    from .chaos import _make_buffers

    return _make_buffers(name, nranks, nbytes)


def check_collective(
    name: str,
    nranks: int,
    nbytes: int = DEFAULT_NBYTES,
    root: int = 0,
    mode: str = "dpor",
    max_states: int = DEFAULT_MAX_STATES,
    faults: Optional[FaultPlan] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> MCReport:
    """Model-check one registry collective over real payload buffers."""
    try:
        spec = REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown collective {name!r}; known: {sorted(REGISTRY)}"
        ) from None
    if not spec.supports(nranks):
        raise ConfigurationError(
            f"collective {name!r} does not support P={nranks}"
            + (" (power-of-two only)" if spec.pof2_only else "")
        )
    return check_program(
        nranks,
        make_factory=lambda: spec.build(nranks, nbytes, root),
        make_buffers=lambda: _collective_buffers(name, nranks, nbytes),
        name=name,
        nbytes=nbytes,
        root=root,
        mode=mode,
        max_states=max_states,
        faults=faults,
        max_attempts=max_attempts,
    )


# ---------------------------------------------------------------------------
# Grid gate
# ---------------------------------------------------------------------------

#: Fault-free sweep: the full registry at every small P, plus the paper's
#: rings pushed to P=8.
DEFAULT_RANKS = (2, 3, 4, 5, 6)
RING_RANKS = (8,)
RING_COLLECTIVES = ("bcast_native", "bcast_opt")

#: Fault-mode cells: the ARQ abstraction under seeded loss on the
#: paper's broadcasts and the ring allgather.
FAULT_COLLECTIVES = ("bcast_native", "bcast_opt", "allgather_ring")
FAULT_RANKS = (4, 5)


def default_mc_plans(seed: int = 0) -> List[FaultPlan]:
    """Seeded fault plans for the bounded ARQ exploration."""
    return [
        FaultPlan.uniform(seed=seed, drop_p=0.3, name="drop30"),
        FaultPlan.uniform(seed=seed + 1, dup_p=0.35, name="dup35"),
        FaultPlan.uniform(seed=seed + 2, drop_p=0.15, corrupt_p=0.15, name="lossy"),
        FaultPlan.none(seed=seed + 3, name="window").with_rule(
            LinkRule(drop_p=1.0, op_lo=1, op_hi=3, label="window")
        ),
        FaultPlan.none(seed=seed + 4, name="crash").with_crash(1),
    ]


@dataclass(frozen=True)
class MCCheck:
    """Verdict for one (collective, P, plan) grid cell."""

    collective: str
    nranks: int
    plan: str  # "-" for fault-free
    mode: str
    states: int
    transitions: int
    executions: int
    terminals: int
    complete: bool
    status: str  # "ok" | "incomplete" | "fail"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        return {
            "collective": self.collective,
            "nranks": self.nranks,
            "plan": self.plan,
            "mode": self.mode,
            "states": self.states,
            "transitions": self.transitions,
            "executions": self.executions,
            "terminals": self.terminals,
            "complete": self.complete,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class MCGridReport:
    """Every grid cell's verdict plus the run parameters."""

    checks: Tuple[MCCheck, ...]
    nbytes: int
    max_states: int
    seed: int

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[MCCheck]:
        return [c for c in self.checks if not c.ok]

    @property
    def total_states(self) -> int:
        return sum(c.states for c in self.checks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "nbytes": self.nbytes,
            "max_states": self.max_states,
            "seed": self.seed,
            "total_states": self.total_states,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def describe(self) -> str:
        lines = [
            f"model-checker gate: nbytes={self.nbytes}, "
            f"max_states={self.max_states}, seed={self.seed}"
        ]
        for c in self.failures:
            lines.append(
                f"  FAIL {c.collective} P={c.nranks} plan={c.plan}: {c.detail}"
            )
        lines.append(
            f"  {len(self.checks) - len(self.failures)}/{len(self.checks)} OK, "
            f"{self.total_states} state(s) explored"
        )
        lines.append(f"verdict: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _grid_cell(
    name: str,
    nranks: int,
    nbytes: int,
    max_states: int,
    faults: Optional[FaultPlan],
) -> MCCheck:
    try:
        report = check_collective(
            name, nranks, nbytes=nbytes, max_states=max_states, faults=faults
        )
    except ReproError as exc:
        return MCCheck(
            collective=name,
            nranks=nranks,
            plan=faults.name if faults else "-",
            mode="dpor",
            states=0,
            transitions=0,
            executions=0,
            terminals=0,
            complete=False,
            status="fail",
            detail=f"{type(exc).__name__}: {exc}",
        )
    if not report.ok:
        status, detail = "fail", "; ".join(str(v) for v in report.violations)
    elif not report.complete:
        status, detail = "incomplete", "state budget exhausted"
    else:
        status, detail = "ok", ""
    return MCCheck(
        collective=name,
        nranks=nranks,
        plan=faults.name if faults else "-",
        mode=report.mode,
        states=report.states,
        transitions=report.transitions,
        executions=report.executions,
        terminals=report.terminals,
        complete=report.complete,
        status=status,
        detail=detail,
    )


def mc_grid(
    ranks: Sequence[int] = DEFAULT_RANKS,
    nbytes: int = DEFAULT_NBYTES,
    max_states: int = DEFAULT_MAX_STATES,
    seed: int = 0,
    fault_points: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> MCGridReport:
    """The CI gate: full registry at small P, rings to P=8, fault cells."""
    checks: List[MCCheck] = []

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    for nranks in ranks:
        for name in sorted(REGISTRY):
            if not REGISTRY[name].supports(nranks):
                continue
            note(f"mc {name} P={nranks}")
            checks.append(_grid_cell(name, nranks, nbytes, max_states, None))
    for nranks in RING_RANKS:
        for name in RING_COLLECTIVES:
            note(f"mc {name} P={nranks}")
            checks.append(_grid_cell(name, nranks, nbytes, max_states, None))
    if fault_points:
        for plan in default_mc_plans(seed):
            for nranks in FAULT_RANKS:
                for name in FAULT_COLLECTIVES:
                    note(f"mc {name} P={nranks} plan={plan.name}")
                    checks.append(
                        _grid_cell(name, nranks, nbytes, max_states, plan)
                    )
    return MCGridReport(
        checks=tuple(checks), nbytes=nbytes, max_states=max_states, seed=seed
    )
