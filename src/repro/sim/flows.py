"""Max-min fair fluid-flow network: the data plane behind all transfer timing.

Each in-flight message is a flow with a byte count and a path of
:class:`~repro.sim.resources.Resource` objects. Whenever the active-flow
set changes the network

1. *advances* every flow's remaining bytes by ``rate x elapsed``,
2. *re-solves* max-min fair rates by progressive filling (water filling),
3. *reschedules* one engine event at the earliest flow completion.

Progressive filling: all unfixed flows grow at the same rate ``t`` until
either a resource saturates or a flow hits its individual rate cap; the
binding flows are fixed and the process repeats. This yields the unique
max-min fair allocation.

Both execution engines run on :class:`FlowNetwork`. The coroutine DES
(:mod:`repro.mpi`) starts :class:`Flow` objects with
:meth:`~FlowNetwork.add_flow`. The replay engine
(:mod:`repro.sim.replay`) registers each transfer plan once with
:meth:`~FlowNetwork.path_class` and starts flows of that class with
:meth:`~FlowNetwork.start`. Beneath both sits one solver, the
simulator's hot loop (it runs twice per message):

* per-flow state (remaining bytes, current rate) lives in plain dicts
  keyed by flow id. Frontiers hold a handful to a few hundred flows, so
  progress accrual and the next-completion search are scalar loops,
  cheaper than small-array numpy calls;
* every flow belongs to a *path class*: its (resource path, rate cap);
* flows are grouped into *contention components*, the connected groups
  of the flow/resource sharing graph. Components merge on every start
  and are repartitioned by union-find once enough flows have left. A
  re-solve runs progressive filling only for the components touched
  since the last solve; max-min fairness guarantees that disjoint
  components keep their previous rates;
* an optional *solve memo* maps a component's multiset of path classes
  to the kernel's output (the replay engine passes one; the DES runs
  without).

The water-filling kernel, :func:`water_fill`, is plain scalar Python.
It recomputes each resource's absolute saturation level
``(capacity - fixed_rates) / pending`` fresh every round instead of
accumulating headroom deltas. That makes the kernel's floating-point
path *independent of component grouping*: solving a disjoint union of
components in one call produces bitwise-identical rates to solving them
separately. Component tracking is therefore a pure optimisation — it
can merge lazily and split opportunistically without ever changing a
simulated timestamp. The same property makes the memo exact: remaining
bytes never enter the kernel, so its output is a function of the class
multiset alone. ``tests/sim/test_solver_differential.py`` holds both
claims against a from-scratch solver that repartitions every active
flow on each change. ``stats()`` exposes solver telemetry (solve count,
water-filling rounds, component sizes, flows advanced, solver wall
time); see ``docs/performance.md``.

This sharing behaviour is the load-bearing part of the reproduction: the
paper's tuned ring allgather removes transfers *without shortening the
ring*, so its advantage exists exactly insofar as concurrent transfers
compete for CPU copy engines, memory engines, NICs and core links — which
is what this model expresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from ..errors import SimulationError
from .engine import Engine, EventHandle
from .resources import Resource

__all__ = ["Flow", "FlowNetwork", "SolverStats", "water_fill"]

# Residual byte counts below this are treated as complete; guards against
# floating-point dust keeping a flow alive forever.
_EPSILON_BYTES = 1e-6

_INF = float("inf")
_NO_RESOURCES: frozenset = frozenset()

# Component solves one memo dict holds at most.
_MEMO_CAP = 1 << 16


def water_fill(paths, capacities, rate_caps):
    """Max-min fair rates of one contention component by progressive filling.

    ``paths[i]`` lists the resource ids flow ``i`` crosses (a repeated
    id charges the flow's rate against that resource once per listing),
    ``capacities[r]`` is resource ``r``'s capacity and ``rate_caps[i]``
    flow ``i``'s own cap as a float (``inf`` when uncapped). Returns the
    rates in flow order and the number of filling rounds.

    Each round recomputes every pending resource's *absolute* saturation
    level ``(capacity - fixed_load) / pending`` instead of accumulating
    headroom decrements, and charges a round's level to a resource by
    repeated addition from ``0.0`` (one ``+ level`` per newly fixed
    crossing) followed by a single add to its fixed load. Every step is
    an exact minimum, an integer count or that fixed summation, so the
    result depends neither on flow or resource order nor on which other
    components share the call — the property component tracking and the
    solve memo rest on. Components are a few dozen
    (flow, resource) pairs, too few to amortise numpy's per-call cost,
    so the kernel works on plain lists and dicts.
    """
    pending: dict = {}
    for path in paths:
        for r in path:
            pending[r] = pending.get(r, 0) + 1
    load = dict.fromkeys(pending, 0.0)  # sum of already-fixed rates
    rates = [0.0] * len(paths)
    unfixed = list(range(len(paths)))
    rounds = 0

    while unfixed:
        rounds += 1
        levels = {r: (capacities[r] - load[r]) / n for r, n in pending.items()}
        level_min = min(levels.values()) if levels else _INF
        if level_min < 0.0:
            level_min = 0.0  # float dust: resource already over-filled
        cap_min = min([rate_caps[i] for i in unfixed])
        level = level_min if level_min < cap_min else cap_min
        if not level < _INF:
            raise SimulationError("flow without binding constraint")

        saturated = _NO_RESOURCES
        if level_min <= level:
            saturated = {r for r, lv in levels.items() if lv <= level}
        newly = []
        rest = []
        for i in unfixed:
            if rate_caps[i] <= level or not saturated.isdisjoint(paths[i]):
                newly.append(i)
            else:
                rest.append(i)
        if not newly:
            # Numerical corner: nothing bound this round. Fix all
            # remaining flows at the current level to terminate.
            newly, rest = rest, []
        unfixed = rest

        dead: dict = {}
        for i in newly:
            rates[i] = level
            for r in paths[i]:
                dead[r] = dead.get(r, 0) + 1
        sums = [0.0]  # sums[k]: k levels added one at a time from 0.0
        for r, n in dead.items():
            while len(sums) <= n:
                sums.append(sums[-1] + level)
            if pending[r] == n:
                del pending[r]
            else:
                pending[r] -= n
                load[r] += sums[n]

    return rates, rounds


@dataclass(frozen=True)
class SolverStats:
    """Telemetry snapshot of one :class:`FlowNetwork`'s solver."""

    mode: str  # "incremental" (the DES) or "replay" (solve memo on)
    solves: int  # rate re-solves actually performed
    rounds: int  # water-filling rounds across all solves
    components_solved: int  # component kernel invocations
    flows_solved: int  # sum of component sizes over all solves
    max_component: int  # largest component ever solved
    flows_advanced: int  # flow-progress updates applied by _advance
    solve_time_s: float  # wall time spent inside the solver


class Flow:
    """One in-flight DES transfer across a path of resources.

    While active, ``remaining``/``rate`` read the owning network's
    per-flow state; once detached the last values are kept locally so
    completed/cancelled flows stay inspectable.
    """

    __slots__ = (
        "fid",
        "nbytes",
        "resources",
        "path_class",
        "rate_cap",
        "on_complete",
        "meta",
        "start_time",
        "_net",
        "_remaining",
        "_rate",
        "_event",
    )

    def __init__(
        self,
        fid: int,
        nbytes: float,
        resources: tuple,
        path_class: int,
        rate_cap: Optional[float],
        on_complete: Optional[Callable],
        meta,
        start_time: float,
    ):
        self.fid = fid
        self.nbytes = float(nbytes)
        self.resources = resources
        self.path_class = path_class  # the network's class id of the path
        self.rate_cap = rate_cap
        self.on_complete = on_complete
        self.meta = meta
        self.start_time = start_time
        self._net: Optional["FlowNetwork"] = None
        self._remaining = float(nbytes)
        self._rate = 0.0
        # Pending completion event of a zero-byte flow.
        self._event: Optional[EventHandle] = None

    @property
    def remaining(self) -> float:
        net = self._net
        if net is not None:
            return net._rem[self.fid]
        return self._remaining

    @property
    def rate(self) -> float:
        net = self._net
        if net is not None:
            return net._rate[self.fid]
        return self._rate

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.fid} {self.remaining:.0f}/{self.nbytes:.0f}B "
            f"@{self.rate:.4g}B/s meta={self.meta!r}>"
        )


class FlowNetwork:
    """Progressive-filling fluid network bound to a simulation engine.

    ``memo`` is the path-class solve memo: a dict mapping a component's
    sorted class-id tuple to ``(class id -> rate, kernel rounds)``. A
    hit replays the stored floats and round count, so rates and
    telemetry do not depend on memo history. With ``None`` (the DES)
    every solve runs the kernel. The attribute may be set until the
    first flow starts.

    ``on_done(token)`` is called when a flow started with :meth:`start`
    drains; it defaults to completing the DES :class:`Flow` passed as
    the token by :meth:`add_flow`.
    """

    def __init__(
        self,
        engine: Engine,
        memo: Optional[Dict] = None,
        on_done: Optional[Callable] = None,
    ):
        self.engine = engine
        self.memo = memo
        # None completes DES flows; storing the bound _finish_flow
        # instead would tie the network into a reference cycle.
        self._on_done = on_done
        self._next_fid = 0
        self._last_update = engine.now
        self._completion_event: Optional[EventHandle] = None
        self._resolve_event: Optional[EventHandle] = None
        self.completed_count = 0
        self.total_bytes_transferred = 0.0  # DES flows only
        # Registry: dense resource ids with their capacities, and path
        # classes with their resource-id path and float rate cap.
        self._res_index: dict = {}
        self._capacities: list = []
        self._class_index: dict = {}  # (resource tuple, cap) -> class id
        self._class_paths: list = []
        self._class_caps: list = []
        # Active flows, keyed by fid (assignment order).
        self._rem: Dict[int, float] = {}  # remaining bytes
        self._rate: Dict[int, float] = {}  # current rate
        self._token: dict = {}  # what on_done receives
        # Contention components: disjoint groups of flows connected
        # through shared resources. Components merge eagerly on start
        # and are repartitioned opportunistically after enough removals
        # — the kernel's grouping independence makes both operations
        # timing-neutral.
        self._next_comp = 0
        self._flow_comp: Dict[int, int] = {}  # fid -> comp id
        self._comp_flows: Dict[int, Dict[int, int]] = {}  # comp -> {fid: class}
        self._comp_res: Dict[int, set] = {}  # comp id -> set of resource ids
        self._res_comp: Dict[int, int] = {}  # resource id -> comp id
        self._comp_removals: Dict[int, int] = {}  # removals since repartition
        self._dirty_comps: set = set()  # components needing a re-solve
        self._split_comps: set = set()  # components due a repartition
        # Telemetry.
        self._stat_solves = 0
        self._stat_rounds = 0
        self._stat_components = 0
        self._stat_flows_solved = 0
        self._stat_max_component = 0
        self._stat_flows_advanced = 0
        self._stat_solve_time = 0.0

    # -- path classes ------------------------------------------------------
    def path_class(self, resources: tuple, rate_cap: Optional[float] = None) -> int:
        """Class id of flows crossing *resources* under *rate_cap*.

        Registers the class (and any new resource) on first sight. Flows
        of one class are interchangeable rows in the kernel; the replay
        engine registers every transfer plan once up front, so its
        class ids follow plan-discovery order.
        """
        cap = _INF if rate_cap is None else rate_cap
        key = (resources, cap)
        cid = self._class_index.get(key)
        if cid is None:
            ids = []
            for res in resources:
                rid = self._res_index.get(res)
                if rid is None:
                    rid = len(self._capacities)
                    self._res_index[res] = rid
                    self._capacities.append(res.capacity)
                ids.append(rid)
            cid = self._class_index[key] = len(self._class_paths)
            self._class_paths.append(tuple(ids))
            self._class_caps.append(float(cap))
        return cid

    def signature(self) -> tuple:
        """``(capacities, class definitions)`` of the registry, in id order.

        Networks with equal signatures compute identical kernel outputs
        for identical class multisets, so they can share one solve memo
        (:func:`repro.sim.replay.shared_solve_memo`).
        """
        return (
            tuple(self._capacities),
            tuple(zip(self._class_paths, self._class_caps)),
        )

    # -- flow lifecycle ----------------------------------------------------
    def start(self, nbytes, path_class: int, token) -> Optional[EventHandle]:
        """Start a flow of *path_class*; ``on_done(token)`` fires when it
        drains.

        A zero-byte flow completes via a zero-delay event instead, so
        callers always observe completion asynchronously (no
        re-entrancy); its handle is returned. Active flows return None.
        """
        fid = self._next_fid
        self._next_fid = fid + 1
        engine = self.engine
        if nbytes <= _EPSILON_BYTES:
            return engine.schedule(0.0, self._finish, token)
        if not self._class_paths[path_class] and self._class_caps[path_class] == _INF:
            raise SimulationError("flow has no resources and no rate cap")
        # _advance() and the deferred re-solve, inlined: this runs once
        # per flow.
        now = engine.now
        rem = self._rem
        rate = self._rate
        elapsed = now - self._last_update
        if elapsed > 0.0 and rem:
            for f, r in rem.items():
                p = r - rate[f] * elapsed
                rem[f] = p if p > 0.0 else 0.0
            self._stat_flows_advanced += len(rem)
        self._last_update = now
        rem[fid] = float(nbytes)
        rate[fid] = 0.0
        self._token[fid] = token
        self._comp_add(fid, path_class)
        if self._resolve_event is None:
            self._resolve_event = engine.schedule_at(now, self._resolve)
        return None

    def add_flow(
        self,
        nbytes: float,
        resources: Iterable[Resource],
        on_complete: Optional[Callable] = None,
        rate_cap: Optional[float] = None,
        meta=None,
    ) -> Flow:
        """Start a DES transfer; ``on_complete(flow)`` fires at delivery
        time. Zero-byte transfers complete at the next event (see
        :meth:`start`)."""
        if nbytes < 0:
            raise SimulationError(f"flow cannot carry {nbytes} bytes")
        if rate_cap is not None:
            if not rate_cap > 0:  # NaN included
                raise SimulationError(
                    f"flow rate cap must be positive, got {rate_cap}"
                )
            rate_cap = float(rate_cap)  # the kernel compares float caps
        path = tuple(resources)
        cid = self.path_class(path, rate_cap)
        flow = Flow(
            self._next_fid,
            nbytes,
            path,
            cid,
            rate_cap,
            on_complete,
            meta,
            self.engine.now,
        )
        flow._event = self.start(nbytes, cid, flow)
        if flow._event is None:
            flow._net = self
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        """Abort a transfer without firing its callback (a no-op once it
        completed or was cancelled)."""
        if flow._event is not None:
            flow._event.cancel()  # a zero-byte flow's pending completion
            return
        if self._token.get(flow.fid) is not flow:
            return
        self._advance()
        self._remove(flow.fid)
        if self._resolve_event is None:
            engine = self.engine
            self._resolve_event = engine.schedule_at(engine.now, self._resolve)

    def flush(self) -> None:
        """Force any deferred rate re-solve to run now.

        Flow-set changes within one timestamp are batched into a single
        zero-delay re-solve; call this to observe up-to-date rates
        without stepping the engine (tests and diagnostics).
        """
        if self._resolve_event is not None:
            self._resolve_event.cancel()
            self._resolve_event = None
            self._resolve()

    def stats(self) -> SolverStats:
        """Solver telemetry accumulated since construction."""
        return SolverStats(
            mode="incremental" if self.memo is None else "replay",
            solves=self._stat_solves,
            rounds=self._stat_rounds,
            components_solved=self._stat_components,
            flows_solved=self._stat_flows_solved,
            max_component=self._stat_max_component,
            flows_advanced=self._stat_flows_advanced,
            solve_time_s=self._stat_solve_time,
        )

    @property
    def active_count(self) -> int:
        return len(self._rem)

    @property
    def active(self) -> List[Flow]:
        """Active flows' tokens (the DES's :class:`Flow` objects) ordered
        by fid (a snapshot; do not mutate)."""
        return [self._token[fid] for fid in sorted(self._rem)]

    # -- internals ---------------------------------------------------------
    def _remove(self, fid: int):
        """Take an active flow out of the data plane; returns its token."""
        self._comp_remove(fid)
        token = self._token.pop(fid)
        remaining = self._rem.pop(fid)
        rate = self._rate.pop(fid)
        if type(token) is Flow:
            # A DES flow keeps its last state.
            token._net = None
            token._remaining = remaining
            token._rate = rate
        return token

    def _advance(self) -> None:
        """Accrue progress for every active flow up to the current time."""
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

    def _resolve(self) -> None:
        """Re-solve rates and reschedule the next completion event.

        The deferred re-solve event runs this directly, so it first
        forgets that event's handle.
        """
        self._resolve_event = None
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
            if r <= _EPSILON_BYTES:
                next_eta = 0.0  # drained: no ETA can be earlier
                break
            rt = rate[fid]
            if rt > 0.0:
                eta = r / rt
                if eta < next_eta:
                    next_eta = eta
        if next_eta == _INF:
            raise SimulationError(
                f"{len(rem)} active flow(s) are stalled at zero rate"
            )
        engine = self.engine
        self._completion_event = engine.schedule_at(
            engine.now + next_eta, self._on_completion_event
        )

    def _on_completion_event(self) -> None:
        self._completion_event = None
        if self._resolve_event is not None:
            # The direct resolve below covers any deferred one.
            self._resolve_event.cancel()
        # _advance() and the drained-flow scan in one pass; _rem iterates
        # in fid order (fids only grow, updates keep their slot).
        now = self.engine.now
        elapsed = now - self._last_update
        self._last_update = now
        rem = self._rem
        rate = self._rate
        finished = []
        for fid, r in rem.items():
            p = r - rate[fid] * elapsed  # rates are finite: p == r at elapsed 0
            if p > _EPSILON_BYTES:
                rem[fid] = p
            else:
                rem[fid] = p if p > 0.0 else 0.0
                finished.append(fid)
        if elapsed > 0.0:
            self._stat_flows_advanced += len(rem)
        if len(finished) == 1:  # the common case: no token list
            token = self._remove(finished[0])
            self._resolve()
            self._finish(token)
            return
        tokens = [self._remove(fid) for fid in finished]
        # With none finished, rates changed since the event was
        # scheduled: this just re-arms it.
        self._resolve()
        for token in tokens:  # fid order
            self._finish(token)

    def _finish(self, token) -> None:
        self.completed_count += 1
        if self._on_done is None:
            self._finish_flow(token)
        else:
            self._on_done(token)

    def _finish_flow(self, flow: Flow) -> None:
        flow._remaining = 0.0
        self.total_bytes_transferred += flow.nbytes
        if flow.on_complete is not None:
            flow.on_complete(flow)

    # -- component tracking ------------------------------------------------
    def _comp_add(self, fid: int, cid: int) -> None:
        res_comp = self._res_comp
        path = self._class_paths[cid]
        found = None  # the components the path touches, in path order
        for rid in path:
            c = res_comp.get(rid)
            if c is not None:
                if found is None:
                    found = [c]
                elif c not in found:
                    found.append(c)
        if found is None:  # touches no active resource: a new one-flow component
            target = self._next_comp
            self._next_comp = target + 1
            self._comp_flows[target] = {fid: cid}
            self._comp_res[target] = set(path)
            for rid in path:
                res_comp[rid] = target
            self._flow_comp[fid] = target
            self._dirty_comps.add(target)
            return
        comp_flows = self._comp_flows
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
        for rid in path:
            res_comp[rid] = target
            self._comp_res[target].add(rid)
        comp_flows[target][fid] = cid
        self._flow_comp[fid] = target
        self._dirty_comps.add(target)

    def _comp_remove(self, fid: int) -> None:
        c = self._flow_comp.pop(fid)
        flows = self._comp_flows[c]
        if len(flows) == 1:  # its last flow: the component goes
            del self._comp_flows[c]
            res_comp = self._res_comp
            for rid in self._comp_res.pop(c):
                del res_comp[rid]
            self._dirty_comps.discard(c)
            self._split_comps.discard(c)
            self._comp_removals.pop(c, None)
            return
        del flows[fid]
        self._dirty_comps.add(c)
        removed = self._comp_removals.get(c, 0) + 1
        # Repartition once removals rival the component's size: keeps
        # stale merges from congealing everything into one mega-component
        # while amortising the O(component) rebuild over many removals.
        if removed >= max(4, len(flows)):
            self._split_comps.add(c)
            self._comp_removals.pop(c, None)
        else:
            self._comp_removals[c] = removed

    def _partition(self, flows: Dict[int, int]) -> List[List[int]]:
        """Group *flows* (fid -> class id) into contention components.

        Union-find over resource ids, flows visited in fid order; groups
        come back ordered by their first fid with members in fid order —
        fully deterministic.
        """
        parent: dict = {}

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        paths = self._class_paths
        ordered = sorted(flows)
        keys: list = []
        for fid in ordered:
            base = None
            for rid in paths[flows[fid]]:
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
        return grouped

    def _repartition_comp(self, c: int) -> None:
        """Rebuild one component's grouping from its surviving flows."""
        flows = self._comp_flows.pop(c)
        for rid in self._comp_res.pop(c):
            del self._res_comp[rid]
        self._dirty_comps.discard(c)
        self._comp_removals.pop(c, None)
        paths = self._class_paths
        for group in self._partition(flows):
            nc = self._next_comp
            self._next_comp += 1
            self._comp_flows[nc] = {f: flows[f] for f in group}
            res: set = set()
            for f in group:
                res.update(paths[flows[f]])
            self._comp_res[nc] = res
            for rid in res:
                self._res_comp[rid] = nc
            for f in group:
                self._flow_comp[f] = nc
            self._dirty_comps.add(nc)

    # -- rate solving ------------------------------------------------------
    def _solve_rates(self) -> None:
        """Re-run progressive filling for the components that changed.

        :meth:`_resolve` calls this on every re-solve, even when nothing
        is dirty, and must keep doing so: the reference solver of
        ``tests/sim/reference_solver.py`` overrides this hook, keeps no
        dirty set and re-solves everything here. A "nothing dirty" guard
        in :meth:`_resolve` would leave the oracle's new flows at zero
        rate.
        """
        dirty = self._dirty_comps
        if not dirty and not self._split_comps:
            return
        start = perf_counter()  # det: allow — telemetry, not sim state
        comp_flows = self._comp_flows
        if self._split_comps:
            for c in sorted(self._split_comps):
                if c in comp_flows:
                    self._repartition_comp(c)
            self._split_comps.clear()
        if len(dirty) != 1:
            for c in sorted(dirty):
                self._solve_component(comp_flows[c])
            dirty.clear()
        else:
            flows = comp_flows[dirty.pop()]
            if len(flows) != 1:
                self._solve_component(flows)
            else:
                # One dirty component of one flow, the common case at
                # eager sizes: the steps of _solve_component without
                # its sorts and lists.
                (fid,) = flows
                cls = flows[fid]
                memo = self.memo
                key = (cls,)
                hit = None if memo is None else memo.get(key)
                if hit is None:
                    hit = self._kernel([cls], key)
                stored, rounds = hit
                self._rate[fid] = stored[cls]
                self._stat_rounds += rounds
                self._stat_components += 1
                self._stat_flows_solved += 1
                if self._stat_max_component < 1:
                    self._stat_max_component = 1
        self._stat_solves += 1
        self._stat_solve_time += perf_counter() - start  # det: allow

    def _solve_component(self, flows: Dict[int, int]) -> None:
        """Progressive filling (:func:`water_fill`) for one contention
        component (fid -> class id), through the memo when there is one."""
        fids = sorted(flows)
        classes = [flows[f] for f in fids]
        memo = self.memo
        key = hit = None
        if memo is not None:
            key = tuple(sorted(classes))
            hit = memo.get(key)
        if hit is None:
            hit = self._kernel(classes, key)
        stored, rounds = hit
        rate = self._rate
        for f, c in zip(fids, classes):
            rate[f] = stored[c]
        n = len(fids)
        self._stat_rounds += rounds
        self._stat_components += 1
        self._stat_flows_solved += n
        if n > self._stat_max_component:
            self._stat_max_component = n

    def _kernel(self, classes: List[int], key: Optional[tuple]):
        """Run :func:`water_fill` on one component's classes (in fid
        order) and remember the result under *key* when memoising."""
        paths = self._class_paths
        caps = self._class_caps
        rates, rounds = water_fill(
            [paths[c] for c in classes],
            self._capacities,
            [caps[c] for c in classes],
        )
        # Same-class flows are interchangeable rows, so they get
        # bitwise-equal rates and one entry per class suffices.
        hit = (dict(zip(classes, rates)), rounds)
        memo = self.memo
        if memo is not None and len(memo) < _MEMO_CAP:
            memo[key] = hit
        return hit
