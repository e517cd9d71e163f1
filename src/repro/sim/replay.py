"""Schedule replay: the fast path around the coroutine DES.

Every shipped collective is *static*: :mod:`repro.collectives.schedule`
can extract the complete message pattern — who sends what to whom, in
which program order, gated by which completions — without a clock. For
such schedules the discrete-event runtime's generator coroutines,
per-message ``Request``/``_Delivery`` objects and matching engines are
pure overhead: the matching outcome is already known, only the *timing*
remains to be computed.

:class:`ReplayEngine` computes exactly that timing. The extracted
schedule is compiled once (:func:`compile_schedule`; the certified
broadcasts are emitted directly by :mod:`repro.collectives.emit`) into
flat lists — per-message ``(src, dst, nbytes, tag)`` plus one
``(kind, arg)`` op stream per rank — and then executed as a
dependency-counted frontier over the *same* :class:`~repro.sim.engine.Engine`
the DES uses. Each rank is a program counter, not a coroutine: ready
ops are drained in batches until the rank blocks, and every send
released in one batch lands in a deferred same-timestamp resolve, so
the water-filling kernel sees whole frontiers at once.

Because the schedule is static, every flow's (src, dst) pair is known
before the clock starts. Replay therefore registers each pair's transfer
plan as a path class of the DES's own :class:`~repro.sim.flows.FlowNetwork`
up front and runs it with a *solve memo*: component solves are memoized
by the multiset of path classes they contain. The water-filling kernel
(:func:`~repro.sim.flows.water_fill`) is a pure function of that
multiset — remaining bytes never enter it, all its reductions are exact
(min, integer counts, equal-value sums) — so a hit replays the exact
floats the kernel computed for an identical component earlier, and a
miss simply runs the kernel. Rates are therefore bitwise-identical by
construction — the same grouping independence component tracking rests
on.

The transport protocol split is reproduced float-for-float from
:mod:`repro.mpi.transport`: eager messages (``nbytes <=
spec.eager_threshold``) start their payload flow at launch and complete
the receive when both the envelope has matched and the flow has drained;
rendezvous messages send only the envelope, wait for the matched
clear-to-send (``rendezvous_rtt x latency``) and then start the flow.
Send/receive overheads, the per-channel non-overtaking envelope clock
and the callback cascade order (sender resumed before the receiver's
delivery) are replicated exactly, which is what makes replay timestamps
*bitwise* equal to the DES — asserted across the registry by
``repro replay --grid`` (:mod:`repro.analysis.replaygate`).

What replay cannot express falls back to the DES: wildcard
``ANY_SOURCE`` receives (match order is timing-dependent), fault
injection with its ARQ reliability layer, and traced or validating
runs.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Dict, List, Optional, Tuple

from ..errors import DeadlockError, ReplayUnsupportedError, SimulationError
from .engine import Engine
from .flows import FlowNetwork

__all__ = [
    "shared_solve_memo",
    "clear_solve_memo",
    "solve_memo_entries",
    "OP_SEND",
    "OP_ISEND",
    "OP_RECV",
    "OP_IRECV",
    "OP_WAIT",
    "OP_COMPUTE",
    "ReplaySchedule",
    "ReplayResult",
    "ReplayEngine",
    "compile_schedule",
]

# Op-stream opcodes recorded by the schedule executor (one
# ``(kind, arg)`` pair per executed MPI operation, per rank).
OP_SEND = 0  # arg: send order (blocking: gates the program on send_done)
OP_ISEND = 1  # arg: send order
OP_RECV = 2  # arg: matched send order (blocking receive)
OP_IRECV = 3  # arg: matched send order, or -1 if never matched
OP_WAIT = 4  # arg: index into the rank's wait-member table
OP_COMPUTE = 5  # arg: index into the rank's compute-seconds table


# -- cross-run solve-memo store ---------------------------------------
#
# The water-filling kernel is a pure function of a component's path-class
# multiset, so its outputs can be reused not just within one replay but
# across every replay whose *structure* matches: same dense resource
# capacities, same (resource path, rate cap) definition per class id.
# That structural signature is computed once per engine; engines with
# equal signatures share one memo dict, so a long-running process (a
# sweep or a ``--jobs N`` worker) pays the
# kernel cost for each contention pattern once, not once per point. Hits replay the exact
# floats (and round counts) the kernel produced, keeping results and
# telemetry bitwise-identical to a cold process — asserted by
# ``tests/sim/test_replay_memo.py`` and the replay differential gate.

_SOLVE_MEMO_STORE: Dict[tuple, Dict] = {}
_SOLVE_MEMO_STORE_CAP = 64  # distinct structures; each memo caps itself


def shared_solve_memo(signature: tuple) -> Dict:
    """The process-wide memo dict for one structural *signature*.

    Falls back to a private dict when the store is full (new structures
    then simply lose cross-run reuse).
    """
    memo = _SOLVE_MEMO_STORE.get(signature)
    if memo is None:
        if len(_SOLVE_MEMO_STORE) >= _SOLVE_MEMO_STORE_CAP:
            return {}
        memo = _SOLVE_MEMO_STORE[signature] = {}
    return memo


def clear_solve_memo() -> int:
    """Drop every shared solve memo; returns how many structures held."""
    n = len(_SOLVE_MEMO_STORE)
    _SOLVE_MEMO_STORE.clear()
    return n


def solve_memo_entries() -> int:
    """Total memoised component solves across all shared structures."""
    return sum(len(m) for m in _SOLVE_MEMO_STORE.values())


class ReplaySchedule:
    """A static schedule compiled to flat lists, ready to execute.

    Machine-independent: the same compiled schedule replays on any
    machine hosting ``nranks`` ranks (protocol split and latencies are
    resolved by the :class:`ReplayEngine` against a concrete machine).
    Nothing mutates a built schedule: engines read its lists in place.
    """

    __slots__ = (
        "nranks",
        "ranks",
        "send_src",
        "send_dst",
        "send_nbytes",
        "send_tag",
        "op_kinds",
        "op_args",
        "wait_members",
        "compute_seconds",
    )

    def __init__(
        self,
        nranks: int,
        ranks: List[int],
        send_src: List[int],
        send_dst: List[int],
        send_nbytes: List[int],
        send_tag: List[int],
        op_kinds: List[List[int]],
        op_args: List[List[int]],
        wait_members: List[List[Tuple[int, ...]]],
        compute_seconds: List[List[float]],
    ):
        self.nranks = nranks
        self.ranks = ranks  # global rank ids in kick (local) order
        self.send_src = send_src
        self.send_dst = send_dst
        self.send_nbytes = send_nbytes
        self.send_tag = send_tag
        self.op_kinds = op_kinds
        self.op_args = op_args
        self.wait_members = wait_members
        self.compute_seconds = compute_seconds

    @property
    def n_sends(self) -> int:
        return len(self.send_src)

    def __repr__(self) -> str:
        ops = sum(len(k) for k in self.op_kinds)
        return (
            f"<ReplaySchedule ranks={self.nranks} sends={self.n_sends} ops={ops}>"
        )


def compile_schedule(result) -> ReplaySchedule:
    """Compile a :class:`~repro.collectives.schedule.ScheduleResult`.

    Raises :class:`~repro.errors.ReplayUnsupportedError` when the
    schedule is not statically replayable (wildcard sources, receives
    that never matched but gate progress, or a pre-op-log extraction).
    """
    blockers = [
        f"rank {r} posts an ANY_SOURCE receive (match order is timing-dependent)"
        for r in result.any_source_ranks
    ]
    blockers.extend(result.replay_blockers)
    op_log = result.op_log
    if not op_log and result.nranks and result.sends:
        blockers.append("schedule carries no per-rank op log")
    if blockers:
        raise ReplayUnsupportedError(
            "schedule is not replayable: " + "; ".join(sorted(set(blockers)))
        )

    sends = result.sends
    ranks: List[int] = []
    op_kinds: List[List[int]] = []
    op_args: List[List[int]] = []
    wait_members: List[List[Tuple[int, ...]]] = []
    compute_seconds: List[List[float]] = []
    for glob, entries in op_log.items():
        ranks.append(glob)
        args: List[int] = []
        waits: List[Tuple[int, ...]] = []
        computes: List[float] = []
        for j, entry in enumerate(entries):
            kind, arg = entry[0], entry[1]
            if kind == OP_WAIT:
                # Collapse duplicate members: the DES registers one
                # callback per list slot, but every duplicate fires in
                # the same finish() cascade, so the resume time is
                # unchanged while the waiter bookkeeping stays 1:1.
                members = tuple(dict.fromkeys(arg))
                for m in members:
                    if not 0 <= m < j:
                        raise ReplayUnsupportedError(
                            f"rank {glob}: wait references op {m} outside "
                            f"the preceding program prefix"
                        )
                    mk, ma = entries[m][0], entries[m][1]
                    if mk not in (OP_ISEND, OP_IRECV):
                        raise ReplayUnsupportedError(
                            f"rank {glob}: wait member op {m} is not an "
                            f"isend/irecv"
                        )
                    if mk == OP_IRECV and ma < 0:
                        raise ReplayUnsupportedError(
                            f"rank {glob}: waited receive (op {m}) never "
                            f"matched a send"
                        )
                args.append(len(waits))
                waits.append(members)
            elif kind == OP_COMPUTE:
                args.append(len(computes))
                computes.append(float(arg))
            else:
                if kind == OP_RECV and arg < 0:
                    raise ReplayUnsupportedError(
                        f"rank {glob}: blocking receive (op {j}) never "
                        f"matched a send"
                    )
                args.append(arg)
        op_kinds.append([e[0] for e in entries])
        op_args.append(args)
        wait_members.append(waits)
        compute_seconds.append(computes)

    if len(ranks) != result.nranks:
        raise ReplayUnsupportedError(
            f"op log covers {len(ranks)} ranks, schedule has {result.nranks}"
        )

    return ReplaySchedule(
        nranks=result.nranks,
        ranks=ranks,
        send_src=[s.src for s in sends],
        send_dst=[s.dst for s in sends],
        send_nbytes=[s.nbytes for s in sends],
        send_tag=[s.tag for s in sends],
        op_kinds=op_kinds,
        op_args=op_args,
        wait_members=wait_members,
        compute_seconds=compute_seconds,
    )


class ReplayResult:
    """Outcome of one replayed schedule (mirrors ``JobResult``)."""

    def __init__(
        self,
        time: float,
        rank_finish_times: List[float],
        counters,
        flows_completed: int,
        solver_stats=None,
    ):
        self.time = time
        self.rank_results: List = [None] * len(rank_finish_times)
        self.rank_finish_times = rank_finish_times
        self.counters = counters
        self.trace = None
        self.flows_completed = flows_completed
        self.solver_stats = solver_stats

    def __repr__(self) -> str:
        return (
            f"<ReplayResult t={self.time:.6g}s ranks={len(self.rank_finish_times)} "
            f"msgs={self.counters.messages}>"
        )


class ReplayEngine:
    """Execute a compiled schedule against the fluid solver, sans DES.

    One program counter per rank, one state word per message; flow
    completion callbacks resume blocked ranks inline in exactly the
    cascade order the coroutine runtime produces, so timestamps (and the
    fid-ordered flow bookkeeping beneath them) are bitwise identical.
    Payload transfers run on the DES's
    :class:`~repro.sim.flows.FlowNetwork` with the shared solve memo,
    which is bitwise-neutral by construction.
    """

    def __init__(self, machine, schedule: ReplaySchedule, working_set: int = 0):
        spec = machine.spec
        if machine.nranks < schedule.nranks:
            raise SimulationError(
                f"machine hosts {machine.nranks} ranks, "
                f"schedule needs {schedule.nranks}"
            )
        self.machine = machine
        self.schedule = schedule
        self.engine = Engine()
        if working_set:
            machine.set_working_set(working_set)

        self._send_overhead = float(spec.send_overhead)
        self._recv_overhead = float(spec.recv_overhead)
        self._rtt = float(spec.rendezvous_rtt)

        n = schedule.n_sends
        # One TransferPlan per distinct (src, dst) pair; the per-channel
        # envelope clock is indexed the same way.
        pair_id: Dict[Tuple[int, int], int] = {}
        plan_idx: List[int] = []
        plans: List = []
        for key in zip(schedule.send_src, schedule.send_dst):
            pid = pair_id.get(key)
            if pid is None:
                pid = pair_id[key] = len(plans)
                plans.append(machine.transfer_plan(*key))
            plan_idx.append(pid)
        self._plan_idx = plan_idx
        self._latency: List[float] = [float(p.latency) for p in plans]
        self._plan_intra: List[bool] = [p.intra_node for p in plans]
        self._env_clock: List[Optional[float]] = [None] * len(plans)
        threshold = spec.eager_threshold
        self._eager: List[bool] = [b <= threshold for b in schedule.send_nbytes]
        self._nbytes: List[int] = schedule.send_nbytes

        # One path class per plan, registered in plan-discovery order, so
        # resource and class ids are dense and deterministic. Pairs whose
        # plans traverse the same resources under the same rate cap share
        # a class: they are interchangeable rows in the kernel.
        self.flownet = net = FlowNetwork(self.engine, on_done=self._flow_complete)
        plan_class = [net.path_class(p.resources, p.rate_cap) for p in plans]
        self._send_class: List[int] = [plan_class[p] for p in plan_idx]
        # Engines whose networks agree on every resource capacity and on
        # each class's (path, rate cap) produce identical kernel outputs
        # for identical class multisets, so they share one cross-run
        # solve memo (warm workers keep it hot across jobs).
        net.memo = shared_solve_memo(net.signature())

        # Per-message protocol state.
        self._env_arrived: List[bool] = [False] * n
        self._recv_posted: List[bool] = [False] * n
        self._matched: List[bool] = [False] * n
        # A send completes when its payload flow drains.
        self._send_done: List[bool] = [False] * n
        self._recv_done: List[bool] = [False] * n
        # Which rank (local index) is parked on this message, -1 if none.
        self._send_waiter: List[int] = [-1] * n
        self._recv_waiter: List[int] = [-1] * n

        # Per-rank execution state.
        nr = schedule.nranks
        self._op_kinds = schedule.op_kinds
        self._op_args = schedule.op_args
        self._pc = [0] * nr
        # Completions a parked rank still waits for: 1 for a blocking
        # send or receive, the outstanding members for a wait.
        self._wait_remaining = [0] * nr
        self._finish: List[Optional[float]] = [None] * nr
        self._ran = False

    # -- execution -----------------------------------------------------
    def run(self) -> ReplayResult:
        """Replay the whole schedule; returns the timing result."""
        if self._ran:
            raise SimulationError("ReplayEngine.run() may only be called once")
        self._ran = True
        for rank in range(self.schedule.nranks):
            # Kick every rank at t=0 (FIFO order: rank 0 first), exactly
            # like the DES Job.
            self.engine.post(0.0, self._run_rank, rank)
        self.engine.run()
        stuck = [r for r, t in enumerate(self._finish) if t is None]
        if stuck:
            raise DeadlockError(
                [
                    f"rank {self.schedule.ranks[r]} stalled at op "
                    f"{self._pc[r]}/{len(self._op_kinds[r])}"
                    for r in stuck
                ]
            )
        makespan = max(self._finish) if self._finish else 0.0
        # The network's completion callback is a method of this engine:
        # dropping the network breaks that cycle, so the run's state is
        # freed with the engine, not at the next full garbage collection
        # (which a sweep's next point may not reach before its own peak).
        net = self.flownet
        del self.flownet
        return ReplayResult(
            time=makespan,
            rank_finish_times=list(self._finish),
            counters=self._build_counters(),
            flows_completed=net.completed_count,
            solver_stats=net.stats(),
        )

    def _run_rank(self, rank: int) -> None:
        """Drain ready ops for *rank* until it blocks or finishes.

        Posting a send or a receive is inlined: this loop runs once per
        op, the replay frontier's innermost step.
        """
        kinds = self._op_kinds[rank]
        args = self._op_args[rank]
        pc = self._pc[rank]
        end = len(kinds)
        send_done = self._send_done
        recv_done = self._recv_done
        recv_posted = self._recv_posted
        env_arrived = self._env_arrived
        overhead = self._send_overhead
        post = self.engine.post
        launch = self._launch_send
        while pc < end:
            kind = kinds[pc]
            arg = args[pc]
            pc += 1
            if kind == OP_ISEND or kind == OP_SEND:
                if overhead > 0.0:
                    post(overhead, launch, arg)
                else:
                    launch(arg)
                if kind == OP_SEND and not send_done[arg]:
                    self._send_waiter[arg] = rank
                    self._wait_remaining[rank] = 1
                    self._pc[rank] = pc
                    return
            elif kind == OP_IRECV or kind == OP_RECV:
                if arg >= 0:  # an unmatched irecv posts nothing
                    recv_posted[arg] = True
                    if env_arrived[arg]:
                        self._match(arg)
                if kind == OP_RECV and not recv_done[arg]:
                    self._recv_waiter[arg] = rank
                    self._wait_remaining[rank] = 1
                    self._pc[rank] = pc
                    return
            elif kind == OP_WAIT:
                remaining = 0
                for m in self.schedule.wait_members[rank][arg]:
                    order = args[m]
                    if kinds[m] == OP_ISEND:
                        if not send_done[order]:
                            self._send_waiter[order] = rank
                            remaining += 1
                    elif not recv_done[order]:
                        self._recv_waiter[order] = rank
                        remaining += 1
                if remaining:
                    self._wait_remaining[rank] = remaining
                    self._pc[rank] = pc
                    return
            else:  # OP_COMPUTE
                self._pc[rank] = pc
                post(self.schedule.compute_seconds[rank][arg], self._run_rank, rank)
                return
        self._pc[rank] = pc
        self._finish[rank] = self.engine.now

    # -- transport protocol (mirrors repro.mpi.transport exactly) ------
    def _launch_send(self, order: int) -> None:
        pid = self._plan_idx[order]
        now = self.engine.now
        # The path latency plus the per-channel non-overtaking envelope
        # clock.
        arrival = now + self._latency[pid]
        floor = self._env_clock[pid]
        if floor is not None and arrival <= floor:
            arrival = floor * (1 + 1e-12) + 1e-15
        self._env_clock[pid] = arrival
        latency = arrival - now
        if self._eager[order]:
            # Payload flow starts at launch, envelope follows the wire.
            self.flownet.start(self._nbytes[order], self._send_class[order], order)
        # Rendezvous sends only the envelope for now.
        self.engine.post(latency, self._envelope_arrive, order)

    def _envelope_arrive(self, order: int) -> None:
        self._env_arrived[order] = True
        if self._recv_posted[order]:
            self._match(order)

    def _match(self, order: int) -> None:
        self._matched[order] = True
        if not self._eager[order]:
            # Clear-to-send travels back, then the payload flow starts.
            cts = self._rtt * self._latency[self._plan_idx[order]]
            self.engine.post(
                cts,
                self.flownet.start,
                self._nbytes[order],
                self._send_class[order],
                order,
            )
        elif self._send_done[order]:
            self._deliver(order)
        # else: eager flow still draining; _flow_complete will deliver.

    def _flow_complete(self, order: int) -> None:
        # Sender completes first, then delivery — the DES cascade order.
        self._send_done[order] = True
        waiter = self._send_waiter[order]
        if waiter >= 0:
            # The parked rank resumes once this was its last completion.
            self._send_waiter[order] = -1
            left = self._wait_remaining[waiter] - 1
            self._wait_remaining[waiter] = left
            if not left:
                self._run_rank(waiter)
        if self._matched[order]:
            self._deliver(order)

    def _deliver(self, order: int) -> None:
        if self._recv_overhead > 0.0:
            self.engine.post(self._recv_overhead, self._complete_recv, order)
        else:
            self._complete_recv(order)

    def _complete_recv(self, order: int) -> None:
        self._recv_done[order] = True
        waiter = self._recv_waiter[order]
        if waiter >= 0:
            self._recv_waiter[order] = -1
            left = self._wait_remaining[waiter] - 1
            self._wait_remaining[waiter] = left
            if not left:
                self._run_rank(waiter)

    # -- wire accounting (launch-equivalent totals) ---------------------
    def _build_counters(self):
        from ..mpi.counters import TrafficCounters

        sched = self.schedule
        c = TrafficCounters()
        nbytes = sched.send_nbytes
        plan_intra = self._plan_intra
        intra = [plan_intra[p] for p in self._plan_idx]
        c.messages = len(nbytes)
        c.bytes = sum(nbytes)
        c.intra_messages = sum(intra)
        c.inter_messages = c.messages - c.intra_messages
        c.intra_bytes = sum(compress(nbytes, intra))
        c.inter_bytes = c.bytes - c.intra_bytes
        for ranks, count_dict, byte_dict in (
            (sched.send_src, c.sent_by_rank, c.bytes_sent_by_rank),
            (sched.send_dst, c.received_by_rank, c.bytes_received_by_rank),
        ):
            counts = Counter(ranks)
            sums = dict.fromkeys(counts, 0)
            for r, b in zip(ranks, nbytes):
                sums[r] += b
            for r in sorted(counts):
                count_dict[r] = counts[r]
                byte_dict[r] = sums[r]
        return c
