"""Vectorized schedule replay: the numpy fast path around the coroutine DES.

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
flat numpy arrays — per-message ``(src, dst, nbytes, tag)`` plus one
``(kind, arg)`` op stream per rank — and then executed as a
dependency-counted frontier over the *same* :class:`~repro.sim.engine.Engine`
the DES uses. Each rank is a program counter, not a coroutine: ready
ops are drained in batches until the rank blocks, and every send
released in one batch lands in a deferred same-timestamp resolve, so
the water-filling kernel sees whole frontiers at once.

Because the schedule is static, every flow's (src, dst) pair is known
before the clock starts, which buys the replay-private flow network an
exact shortcut over the DES's solver: component solves are *memoized*
by the multiset of pair ids they contain. The water-filling kernel
(:func:`~repro.sim.flows.water_fill`, the one the DES solver calls) is a
pure function of that multiset — remaining bytes never enter it, all
its reductions are exact (min, integer counts, equal-value sums) — so
a hit replays the exact floats the kernel computed for an identical
component earlier, and a miss simply runs the kernel. Rates are
therefore bitwise-identical by construction — the same grouping
independence the incremental/reference solver gate rests on.

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
injection, the ARQ reliability layer, stochastic latencies
(``jitter_sigma``/``queueing_kappa``) and traced or validating runs.
``REPRO_ENGINE=des|replay|auto`` overrides the dispatch.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import DeadlockError, ReplayUnsupportedError, SimulationError
from .engine import Engine
from .flows import _EPSILON_BYTES, SolverStats, water_fill

_INF = float("inf")

__all__ = [
    "ENGINE_ENV",
    "ENGINE_MODES",
    "engine_mode",
    "SOLVE_MEMO_ENV",
    "solve_memo_mode",
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

# Environment escape hatch selecting the execution engine.
ENGINE_ENV = "REPRO_ENGINE"
ENGINE_MODES = ("auto", "des", "replay")

# Op-stream opcodes recorded by the schedule executor (one
# ``(kind, arg)`` pair per executed MPI operation, per rank).
OP_SEND = 0  # arg: send order (blocking: gates the program on send_done)
OP_ISEND = 1  # arg: send order
OP_RECV = 2  # arg: matched send order (blocking receive)
OP_IRECV = 3  # arg: matched send order, or -1 if never matched
OP_WAIT = 4  # arg: index into the rank's wait-member table
OP_COMPUTE = 5  # arg: index into the rank's compute-seconds table


def engine_mode() -> str:
    """The engine selected by ``REPRO_ENGINE`` (default ``auto``)."""
    mode = os.environ.get(ENGINE_ENV, "").strip() or "auto"
    if mode not in ENGINE_MODES:
        raise SimulationError(
            f"unknown {ENGINE_ENV} mode {mode!r}; expected one of {ENGINE_MODES}"
        )
    return mode


# -- cross-run solve-memo store ---------------------------------------
#
# The water-filling kernel is a pure function of a component's path-class
# multiset, so its outputs can be reused not just within one replay but
# across every replay whose *structure* matches: same dense resource
# capacities, same (resource path, rate cap) definition per class id.
# That structural signature is computed once per engine; engines with
# equal signatures share one memo dict, so a long-running process (the
# simulation service's warm workers above all) pays the kernel cost for
# each contention pattern once, not once per job. Hits replay the exact
# floats (and round counts) the kernel produced, keeping results and
# telemetry bitwise-identical to a cold process — asserted by
# ``tests/sim/test_replay.py`` and the replay differential gate.

SOLVE_MEMO_ENV = "REPRO_REPLAY_MEMO"
_SOLVE_MEMO_MODES = ("shared", "private")
_SOLVE_MEMO_STORE: Dict[tuple, Dict] = {}
_SOLVE_MEMO_STORE_CAP = 64  # distinct structures; each memo caps itself


def solve_memo_mode() -> str:
    """``REPRO_REPLAY_MEMO``: ``shared`` (default) or ``private``."""
    mode = os.environ.get(SOLVE_MEMO_ENV, "").strip() or "shared"
    if mode not in _SOLVE_MEMO_MODES:
        raise SimulationError(
            f"unknown {SOLVE_MEMO_ENV} mode {mode!r}; "
            f"expected one of {_SOLVE_MEMO_MODES}"
        )
    return mode


def shared_solve_memo(signature: tuple) -> Dict:
    """The process-wide memo dict for one structural *signature*.

    Falls back to a private dict when the store is full (new structures
    then simply lose cross-run reuse) or when ``REPRO_REPLAY_MEMO=private``.
    """
    if solve_memo_mode() != "shared":
        return {}
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
    """A static schedule compiled to flat arrays, ready to execute.

    Machine-independent: the same compiled schedule replays on any
    machine hosting ``nranks`` ranks (protocol split and latencies are
    resolved by the :class:`ReplayEngine` against a concrete machine).
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
        send_src: np.ndarray,
        send_dst: np.ndarray,
        send_nbytes: np.ndarray,
        send_tag: np.ndarray,
        op_kinds: List[np.ndarray],
        op_args: List[np.ndarray],
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
    blockers = list(getattr(result, "replay_blockers", ()) or ())
    op_log = getattr(result, "op_log", None)
    if not op_log and result.nranks and result.sends:
        blockers.append("schedule carries no per-rank op log")
    if blockers:
        raise ReplayUnsupportedError(
            "schedule is not replayable: " + "; ".join(sorted(set(blockers)))
        )
    op_log = op_log or {}

    n = len(result.sends)
    send_src = np.fromiter((s.src for s in result.sends), dtype=np.int64, count=n)
    send_dst = np.fromiter((s.dst for s in result.sends), dtype=np.int64, count=n)
    send_nbytes = np.fromiter(
        (s.nbytes for s in result.sends), dtype=np.int64, count=n
    )
    send_tag = np.fromiter((s.tag for s in result.sends), dtype=np.int64, count=n)

    ranks: List[int] = []
    op_kinds: List[np.ndarray] = []
    op_args: List[np.ndarray] = []
    wait_members: List[List[Tuple[int, ...]]] = []
    compute_seconds: List[List[float]] = []
    for glob, entries in op_log.items():
        ranks.append(glob)
        count = len(entries)
        kinds = np.fromiter((e[0] for e in entries), dtype=np.int8, count=count)
        args = np.zeros(count, dtype=np.int64)
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
                args[j] = len(waits)
                waits.append(members)
            elif kind == OP_COMPUTE:
                args[j] = len(computes)
                computes.append(float(arg))
            else:
                if kind == OP_RECV and arg < 0:
                    raise ReplayUnsupportedError(
                        f"rank {glob}: blocking receive (op {j}) never "
                        f"matched a send"
                    )
                args[j] = arg
        op_kinds.append(kinds)
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
        send_src=send_src,
        send_dst=send_dst,
        send_nbytes=send_nbytes,
        send_tag=send_tag,
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


class _LeanFlowNet:
    """A replay-private fluid data plane, float-exact with the stock one.

    Semantically this is :class:`~repro.sim.flows.FlowNetwork` with the
    incremental solver: the same deferred same-timestamp re-solve, the
    same lazily-merged/lazily-split component tracking, the same
    water-filling kernel on misses, the same fid-ordered completion
    cascade. What changes is the *cost per event*: replay frontiers are
    typically a handful of flows, so per-flow state lives in plain
    Python dicts of floats (byte accrual and completion etas are scalar
    arithmetic, not small-array numpy calls) and there are no slot
    pools, Flow objects or resource attach/detach sets. The byte
    accrual and eta expressions — ``rem - rate * elapsed``,
    ``rem / rate`` — are copied operand-for-operand from ``flows.py``
    and the rates come from the same :func:`~repro.sim.flows.water_fill`,
    so the produced timestamps are bitwise identical.

    On top of that sits the replay-only *solve memo*. Each flow maps to
    a static path class — the (resource-id tuple, rate cap) equivalence
    class of its transfer plan — and the kernel's output is a pure
    function of the multiset of path classes in the component: remaining
    bytes never enter it, same-class flows are interchangeable rows, and
    resource-column/flow-row order cancel out because every reduction is
    exact (min, integer counts, equal-value sums). Collective schedules
    cycle through recurring contention patterns, so most solves hit the
    memo and replay the exact floats the kernel produced earlier; misses
    run the kernel and record its outputs.
    """

    def __init__(
        self,
        engine: Engine,
        order_pid: List[int],
        nbytes: List[int],
        res_lists: List[List[int]],
        capacities: List[float],
        rate_caps: List[float],
        class_of_pid: List[int],
        on_done,
        memo: Optional[Dict] = None,
    ):
        self.engine = engine
        self._order_pid = order_pid
        self._nbytes = nbytes
        self._res_lists = res_lists
        self._capacities = capacities
        self._rate_caps = rate_caps  # float; inf when the plan has none
        self._class_of_pid = class_of_pid
        self._on_done = on_done

        self.completed_count = 0
        self._next_fid = 0
        self._last_update = 0.0
        self._resolve_event = None
        self._completion_event = None

        # Active flows, keyed by fid (assignment order == DES fid order).
        self._rem: Dict[int, float] = {}
        self._rate: Dict[int, float] = {}
        self._forder: Dict[int, int] = {}

        # Component tracking, ported from FlowNetwork's incremental mode:
        # lazily merged on add, lazily split once removals rival size.
        self._comp_flows: Dict[int, Dict[int, int]] = {}  # c -> {fid: pid}
        self._flow_comp: Dict[int, int] = {}
        self._res_comp: Dict[int, int] = {}
        self._comp_res: Dict[int, set] = {}
        self._dirty_comps: set = set()
        self._split_comps: set = set()
        self._comp_removals: Dict[int, int] = {}
        self._next_comp = 0

        # (class multiset) -> (class -> rate, kernel rounds). Possibly a
        # process-wide dict shared with structurally-identical engines
        # (see shared_solve_memo); hits replay the stored rounds so the
        # telemetry, like the rates, is independent of memo history.
        self._memo: Dict[Tuple[int, ...], Tuple[Dict[int, float], int]] = (
            {} if memo is None else memo
        )
        self._stat_solves = 0
        self._stat_rounds = 0
        self._stat_components = 0
        self._stat_flows_solved = 0
        self._stat_max_component = 0
        self._stat_flows_advanced = 0
        self._stat_solve_time = 0.0

    def stats(self) -> SolverStats:
        return SolverStats(
            mode="replay",
            solves=self._stat_solves,
            rounds=self._stat_rounds,
            components_solved=self._stat_components,
            flows_solved=self._stat_flows_solved,
            max_component=self._stat_max_component,
            flows_advanced=self._stat_flows_advanced,
            solve_time_s=self._stat_solve_time,
        )

    # -- flow lifecycle ------------------------------------------------
    def add_flow(self, order: int) -> None:
        fid = self._next_fid
        self._next_fid += 1
        nbytes = self._nbytes[order]
        if nbytes <= _EPSILON_BYTES:
            self.engine.schedule(0.0, self._finish_zero, order)
            return
        pid = self._order_pid[order]
        if not self._res_lists[pid] and self._rate_caps[pid] == _INF:
            raise SimulationError("flow has no resources and no rate cap")
        self._advance()
        self._rem[fid] = float(nbytes)
        self._rate[fid] = 0.0
        self._forder[fid] = order
        self._comp_add(fid, pid)
        if self._resolve_event is None:
            self._resolve_event = self.engine.schedule(0.0, self._deferred_resolve)

    def _finish_zero(self, order: int) -> None:
        self.completed_count += 1
        self._on_done(order)

    def _advance(self) -> None:
        now = self.engine.now
        elapsed = now - self._last_update
        rem = self._rem
        if elapsed > 0.0 and rem:
            rate = self._rate
            for fid, r in rem.items():
                p = r - rate[fid] * elapsed
                rem[fid] = p if p > 0.0 else 0.0
            self._stat_flows_advanced += len(rem)
        self._last_update = now

    def _deferred_resolve(self) -> None:
        self._resolve_event = None
        self._resolve()

    def _resolve(self) -> None:
        self._solve_rates()
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        rem = self._rem
        if not rem:
            return
        rate = self._rate
        next_eta = _INF
        for fid, r in rem.items():
            rt = rate[fid]
            eta = r / rt if rt > 0.0 else _INF
            if r <= _EPSILON_BYTES:
                eta = 0.0
            if eta < next_eta:
                next_eta = eta
        if next_eta == _INF:
            raise SimulationError(
                f"{len(rem)} active flow(s) are stalled at zero rate"
            )
        self._completion_event = self.engine.schedule(
            next_eta, self._on_completion_event
        )

    def _on_completion_event(self) -> None:
        self._completion_event = None
        if self._resolve_event is not None:
            # The direct resolve below covers any deferred one.
            self._resolve_event.cancel()
            self._resolve_event = None
        self._advance()
        rem = self._rem
        finished = sorted(fid for fid, r in rem.items() if r <= _EPSILON_BYTES)
        if not finished:
            # Rates changed since the event was scheduled; just re-arm.
            self._resolve()
            return
        forder = self._forder
        rate = self._rate
        orders = []
        for fid in finished:
            orders.append(forder.pop(fid))
            del rem[fid]
            del rate[fid]
            self._comp_remove(fid)
        self._resolve()
        on_done = self._on_done
        for order in orders:  # fid order, exactly like _finish_flow
            self.completed_count += 1
            on_done(order)

    # -- component tracking (ported from FlowNetwork) ------------------
    def _comp_add(self, fid: int, pid: int) -> None:
        comp_flows = self._comp_flows
        res_comp = self._res_comp
        found: list = []
        for rid in self._res_lists[pid]:
            c = res_comp.get(rid)
            if c is not None and c not in found:
                found.append(c)
        if not found:
            target = self._next_comp
            self._next_comp += 1
            comp_flows[target] = {}
            self._comp_res[target] = set()
        else:
            target = found[0]
            for c in found[1:]:
                if len(comp_flows[c]) > len(comp_flows[target]):
                    target = c
            for c in found:
                if c == target:
                    continue
                moved = comp_flows.pop(c)
                comp_flows[target].update(moved)
                for f in moved:
                    self._flow_comp[f] = target
                res = self._comp_res.pop(c)
                self._comp_res[target] |= res
                for rid in res:
                    res_comp[rid] = target
                self._dirty_comps.discard(c)
                if c in self._split_comps:
                    self._split_comps.discard(c)
                    self._split_comps.add(target)
                self._comp_removals[target] = self._comp_removals.pop(
                    target, 0
                ) + self._comp_removals.pop(c, 0)
        for rid in self._res_lists[pid]:
            res_comp[rid] = target
            self._comp_res[target].add(rid)
        comp_flows[target][fid] = pid
        self._flow_comp[fid] = target
        self._dirty_comps.add(target)

    def _comp_remove(self, fid: int) -> None:
        c = self._flow_comp.pop(fid)
        flows = self._comp_flows[c]
        del flows[fid]
        if not flows:
            del self._comp_flows[c]
            for rid in self._comp_res.pop(c):
                if self._res_comp.get(rid) == c:
                    del self._res_comp[rid]
            self._dirty_comps.discard(c)
            self._split_comps.discard(c)
            self._comp_removals.pop(c, None)
            return
        self._dirty_comps.add(c)
        removed = self._comp_removals.get(c, 0) + 1
        # Repartition once removals rival the component's size (same
        # amortisation rule as the stock tracker).
        if removed >= max(4, len(flows)):
            self._split_comps.add(c)
            self._comp_removals.pop(c, None)
        else:
            self._comp_removals[c] = removed

    def _repartition_comp(self, c: int) -> None:
        flows = self._comp_flows.pop(c)
        for rid in self._comp_res.pop(c):
            if self._res_comp.get(rid) == c:
                del self._res_comp[rid]
        self._dirty_comps.discard(c)
        self._comp_removals.pop(c, None)

        # Union-find over resource ids, flows visited in fid order —
        # byte-for-byte the grouping FlowNetwork._partition computes.
        parent: dict = {}

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        res_lists = self._res_lists
        ordered = sorted(flows)
        keys: list = []
        for fid in ordered:
            base = None
            for rid in res_lists[flows[fid]]:
                if rid not in parent:
                    parent[rid] = rid
                root = find(rid)
                if base is None:
                    base = root
                elif root != base:
                    parent[root] = base
            keys.append(base)

        groups: dict = {}
        grouped: list = []
        for fid, key in zip(ordered, keys):
            gkey = ("f", fid) if key is None else ("r", find(key))
            group = groups.get(gkey)
            if group is None:
                groups[gkey] = group = []
                grouped.append(group)
            group.append(fid)

        for group in grouped:
            nc = self._next_comp
            self._next_comp += 1
            self._comp_flows[nc] = {f: flows[f] for f in group}
            res: set = set()
            for f in group:
                res.update(res_lists[flows[f]])
            self._comp_res[nc] = res
            for rid in res:
                self._res_comp[rid] = nc
            for f in group:
                self._flow_comp[f] = nc
            self._dirty_comps.add(nc)

    # -- rate solving --------------------------------------------------
    def _solve_rates(self) -> None:
        if not self._dirty_comps and not self._split_comps:
            return
        start = perf_counter()  # det: allow — telemetry, not sim state
        if self._split_comps:
            for c in sorted(self._split_comps):
                if c in self._comp_flows:
                    self._repartition_comp(c)
            self._split_comps.clear()
        for c in sorted(self._dirty_comps):
            self._solve_component(self._comp_flows[c])
        self._dirty_comps.clear()
        self._stat_solves += 1
        self._stat_solve_time += perf_counter() - start  # det: allow

    def _solve_component(self, flows: Dict[int, int]) -> None:
        class_of = self._class_of_pid
        fids = sorted(flows)
        pids = [flows[f] for f in fids]
        classes = [class_of[p] for p in pids]
        key = tuple(sorted(classes))
        hit = self._memo.get(key)
        if hit is None:
            # Same-class flows are interchangeable rows, so they get
            # bitwise-equal rates and one entry per class suffices.
            rate_caps = self._rate_caps
            rates, rounds = water_fill(
                [self._res_lists[p] for p in pids],
                self._capacities,
                [rate_caps[p] for p in pids],
            )
            hit = (dict(zip(classes, rates)), rounds)
            if len(self._memo) < (1 << 16):
                self._memo[key] = hit
        stored, rounds = hit
        rate = self._rate
        for f, cls in zip(fids, classes):
            rate[f] = stored[cls]
        n = len(fids)
        self._stat_rounds += rounds
        self._stat_components += 1
        self._stat_flows_solved += n
        if n > self._stat_max_component:
            self._stat_max_component = n


class ReplayEngine:
    """Execute a compiled schedule against the fluid solver, sans DES.

    One program counter per rank, one state word per message; flow
    completion callbacks resume blocked ranks inline in exactly the
    cascade order the coroutine runtime produces, so timestamps (and the
    fid-ordered flow bookkeeping beneath them) are bitwise identical.
    Payload transfers run through :class:`_LeanFlowNet`, whose scalar
    data plane and solve memo are bitwise-neutral by construction.
    """

    def __init__(self, machine, schedule: ReplaySchedule, working_set: int = 0):
        spec = machine.spec
        if spec.jitter_sigma > 0.0 or spec.queueing_kappa > 0.0:
            raise ReplayUnsupportedError(
                "replay needs deterministic latencies "
                f"(jitter_sigma={spec.jitter_sigma}, "
                f"queueing_kappa={spec.queueing_kappa})"
            )
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
        plan_idx = np.zeros(n, dtype=np.int64)
        plans: List = []
        for i in range(n):
            key = (int(schedule.send_src[i]), int(schedule.send_dst[i]))
            pid = pair_id.get(key)
            if pid is None:
                pid = len(plans)
                pair_id[key] = pid
                plans.append(machine.transfer_plan(key[0], key[1]))
            plan_idx[i] = pid
        self._plan_idx = plan_idx
        self._plan_idx_l: List[int] = plan_idx.tolist()
        self._latency: List[float] = [float(p.latency) for p in plans]
        self._plan_intra = np.fromiter(
            (p.intra_node for p in plans), dtype=bool, count=len(plans)
        )
        self._env_clock: List[Optional[float]] = [None] * len(plans)
        self._eager: List[bool] = (
            schedule.send_nbytes <= spec.eager_threshold
        ).tolist()
        # Python ints for add_flow: keeps the float conversion identical
        # to the DES transport's ``req.nbytes`` path.
        self._nbytes: List[int] = [int(b) for b in schedule.send_nbytes]

        # Dense resource ids in plan-discovery order (the analogue of
        # FlowNetwork._ids_for; id values only name resources).
        res_index: Dict = {}
        capacities: List[float] = []
        res_lists: List[List[int]] = []
        for p in plans:
            ids = []
            for r in p.resources:
                rid = res_index.get(r)
                if rid is None:
                    rid = len(capacities)
                    res_index[r] = rid
                    capacities.append(r.capacity)
                ids.append(rid)
            res_lists.append(ids)
        rate_caps = [
            p.rate_cap if p.rate_cap is not None else _INF for p in plans
        ]
        # Path classes: pairs whose transfer plans traverse the same
        # resource objects under the same rate cap are interchangeable
        # rows in the water-filling kernel, so they share a memo id.
        class_index: Dict[Tuple, int] = {}
        class_of_pid: List[int] = []
        for pid in range(len(plans)):
            ckey = (tuple(res_lists[pid]), rate_caps[pid])
            cid = class_index.get(ckey)
            if cid is None:
                cid = len(class_index)
                class_index[ckey] = cid
            class_of_pid.append(cid)
        # Structural signature: engines agreeing on every dense resource
        # capacity and on each class id's (path, rate cap) definition
        # produce identical kernel outputs for identical multisets, so
        # they can share one cross-run solve memo (warm workers keep it
        # hot across jobs; see shared_solve_memo).
        memo_signature = (tuple(capacities), tuple(class_index))
        self.flownet = _LeanFlowNet(
            self.engine,
            self._plan_idx_l,
            self._nbytes,
            res_lists,
            capacities,
            rate_caps,
            class_of_pid,
            self._flow_complete,
            memo=shared_solve_memo(memo_signature),
        )

        # Per-message protocol state (plain lists: scalar indexing on the
        # cascade hot path is markedly faster than numpy item access).
        self._env_arrived: List[bool] = [False] * n
        self._recv_posted: List[bool] = [False] * n
        self._matched: List[bool] = [False] * n
        self._flow_done: List[bool] = [False] * n
        self._send_done: List[bool] = [False] * n
        self._recv_done: List[bool] = [False] * n
        # Which rank (local index) is parked on this message, -1 if none.
        self._send_waiter: List[int] = [-1] * n
        self._recv_waiter: List[int] = [-1] * n

        # Per-rank execution state.
        nr = schedule.nranks
        self._op_kinds: List[List[int]] = [k.tolist() for k in schedule.op_kinds]
        self._op_args: List[List[int]] = [a.tolist() for a in schedule.op_args]
        self._pc = [0] * nr
        self._in_wait = [False] * nr
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
            self.engine.schedule(0.0, self._run_rank, rank)
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
        return ReplayResult(
            time=makespan,
            rank_finish_times=list(self._finish),
            counters=self._build_counters(),
            flows_completed=self.flownet.completed_count,
            solver_stats=self.flownet.stats(),
        )

    def _run_rank(self, rank: int) -> None:
        """Drain ready ops for *rank* until it blocks or finishes."""
        kinds = self._op_kinds[rank]
        args = self._op_args[rank]
        pc = self._pc[rank]
        end = len(kinds)
        while pc < end:
            kind = kinds[pc]
            arg = args[pc]
            pc += 1
            if kind == OP_ISEND:
                self._post_send(arg)
            elif kind == OP_SEND:
                self._post_send(arg)
                if not self._send_done[arg]:
                    self._send_waiter[arg] = rank
                    self._in_wait[rank] = False
                    self._pc[rank] = pc
                    return
            elif kind == OP_IRECV:
                if arg >= 0:
                    self._post_recv(arg)
            elif kind == OP_RECV:
                self._post_recv(arg)
                if not self._recv_done[arg]:
                    self._recv_waiter[arg] = rank
                    self._in_wait[rank] = False
                    self._pc[rank] = pc
                    return
            elif kind == OP_WAIT:
                remaining = 0
                for m in self.schedule.wait_members[rank][arg]:
                    order = args[m]
                    if kinds[m] == OP_ISEND:
                        if not self._send_done[order]:
                            self._send_waiter[order] = rank
                            remaining += 1
                    elif not self._recv_done[order]:
                        self._recv_waiter[order] = rank
                        remaining += 1
                if remaining:
                    self._wait_remaining[rank] = remaining
                    self._in_wait[rank] = True
                    self._pc[rank] = pc
                    return
            else:  # OP_COMPUTE
                self._pc[rank] = pc
                seconds = self.schedule.compute_seconds[rank][arg]
                self.engine.schedule(seconds, self._run_rank, rank)
                return
        self._pc[rank] = pc
        self._finish[rank] = self.engine.now

    def _unblock(self, rank: int) -> None:
        """A message the rank was parked on completed; maybe resume."""
        if self._in_wait[rank]:
            self._wait_remaining[rank] -= 1
            if self._wait_remaining[rank] > 0:
                return
            self._in_wait[rank] = False
        self._run_rank(rank)

    # -- transport protocol (mirrors repro.mpi.transport exactly) ------
    def _post_send(self, order: int) -> None:
        if self._send_overhead > 0.0:
            self.engine.schedule(self._send_overhead, self._launch_send, order)
        else:
            self._launch_send(order)

    def _launch_send(self, order: int) -> None:
        pid = self._plan_idx_l[order]
        now = self.engine.now
        # Deterministic latency (jitter/queueing are gated off) plus the
        # per-channel non-overtaking envelope clock.
        arrival = now + self._latency[pid]
        floor = self._env_clock[pid]
        if floor is not None and arrival <= floor:
            arrival = floor * (1 + 1e-12) + 1e-15
        self._env_clock[pid] = arrival
        latency = arrival - now
        if self._eager[order]:
            # Payload flow starts at launch, envelope follows the wire.
            self.flownet.add_flow(order)
        # Rendezvous sends only the envelope for now.
        self.engine.schedule(latency, self._envelope_arrive, order)

    def _envelope_arrive(self, order: int) -> None:
        self._env_arrived[order] = True
        if self._recv_posted[order]:
            self._match(order)

    def _post_recv(self, order: int) -> None:
        self._recv_posted[order] = True
        if self._env_arrived[order]:
            self._match(order)

    def _match(self, order: int) -> None:
        self._matched[order] = True
        if not self._eager[order]:
            # Clear-to-send travels back, then the payload flow starts.
            cts = self._rtt * self._latency[self._plan_idx_l[order]]
            self.engine.schedule(cts, self.flownet.add_flow, order)
        elif self._flow_done[order]:
            self._deliver(order)
        # else: eager flow still draining; _flow_complete will deliver.

    def _flow_complete(self, order: int) -> None:
        self._flow_done[order] = True
        # Sender completes first, then delivery — the DES cascade order.
        self._send_done[order] = True
        waiter = self._send_waiter[order]
        if waiter >= 0:
            self._send_waiter[order] = -1
            self._unblock(waiter)
        if self._matched[order]:
            self._deliver(order)

    def _deliver(self, order: int) -> None:
        if self._recv_overhead > 0.0:
            self.engine.schedule(self._recv_overhead, self._complete_recv, order)
        else:
            self._complete_recv(order)

    def _complete_recv(self, order: int) -> None:
        self._recv_done[order] = True
        waiter = self._recv_waiter[order]
        if waiter >= 0:
            self._recv_waiter[order] = -1
            self._unblock(waiter)

    # -- wire accounting (vectorized; launch-equivalent totals) --------
    def _build_counters(self):
        from ..mpi.counters import TrafficCounters

        sched = self.schedule
        c = TrafficCounters()
        n = sched.n_sends
        if n == 0:
            return c
        nbytes = sched.send_nbytes
        intra = self._plan_intra[self._plan_idx]
        c.messages = n
        c.bytes = int(nbytes.sum())
        c.intra_messages = int(intra.sum())
        c.inter_messages = n - c.intra_messages
        c.intra_bytes = int(nbytes[intra].sum())
        c.inter_bytes = c.bytes - c.intra_bytes
        for ranks, count_dict, byte_dict in (
            (sched.send_src, c.sent_by_rank, c.bytes_sent_by_rank),
            (sched.send_dst, c.received_by_rank, c.bytes_received_by_rank),
        ):
            counts = np.bincount(ranks)
            sums = np.zeros(len(counts), dtype=np.int64)
            np.add.at(sums, ranks, nbytes)
            for r in np.flatnonzero(counts):
                count_dict[int(r)] = int(counts[r])
                byte_dict[int(r)] = int(sums[r])
        return c
