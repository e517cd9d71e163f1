"""Max-min fair fluid-flow network driving all transfer timing.

Each in-flight message is a :class:`Flow` with a byte count and a path of
:class:`~repro.sim.resources.Resource` objects. Whenever the active-flow
set changes the network

1. *advances* every flow's remaining bytes by ``rate x elapsed``,
2. *re-solves* max-min fair rates by progressive filling (water filling),
3. *reschedules* one engine event at the earliest flow completion.

Progressive filling: all unfixed flows grow at the same rate ``t`` until
either a resource saturates or a flow hits its individual rate cap; the
binding flows are fixed and the process repeats. This yields the unique
max-min fair allocation.

The solver is the simulator's hot loop (it runs twice per message), so
it is *incremental*:

* flow state (remaining bytes, current rate) lives in persistent
  slot-indexed numpy vectors updated in place on
  ``add_flow``/``cancel_flow`` — advancing progress and finding the next
  completion ETA are single array operations, never Python loops;
* membership is tracked with O(1) index maps (fid -> slot), so removing
  a flow never scans the active set;
* flows are grouped into *contention components* — connected groups of
  the flow/resource sharing graph, maintained with a union-find over
  each path's resources — and a re-solve only runs progressive filling
  for the component(s) touched since the last solve.  Max-min fairness
  guarantees disjoint components keep their previous rates.

The water-filling kernel, :func:`water_fill`, is plain scalar Python
shared with the replay engine's data plane (:mod:`repro.sim.replay`).
It recomputes each resource's absolute saturation level
``(capacity - fixed_rates) / pending`` fresh every round instead of
accumulating headroom deltas.  That makes the kernel's floating-point
path *independent of component grouping*: solving a disjoint union of
components in one call produces bitwise-identical rates to solving them
separately.  Component tracking is therefore a pure optimisation — it
can merge lazily and split opportunistically without ever changing a
simulated timestamp, and the incremental solver is bit-for-bit
equivalent to the from-scratch one (enforced by the differential tests
in ``tests/sim/test_solver_differential.py``).

Set ``REPRO_SOLVER=reference`` to force the from-scratch solver — every
re-solve repartitions all active flows and re-runs the kernel on every
component — as a differential-testing escape hatch. ``stats()`` exposes
solver telemetry (solve count, water-filling rounds, component sizes,
flows advanced, solver wall time); see ``docs/performance.md``.

This sharing behaviour is the load-bearing part of the reproduction: the
paper's tuned ring allgather removes transfers *without shortening the
ring*, so its advantage exists exactly insofar as concurrent transfers
compete for CPU copy engines, memory engines, NICs and core links — which
is what this model expresses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, List, Optional

import numpy as np

from ..errors import SimulationError
from .engine import Engine, EventHandle
from .resources import Resource

__all__ = ["Flow", "FlowNetwork", "SolverStats", "solver_mode", "water_fill"]

# Residual byte counts below this are treated as complete; guards against
# floating-point dust keeping a flow alive forever.
_EPSILON_BYTES = 1e-6

_INF = float("inf")
_NO_RESOURCES: frozenset = frozenset()

# Environment escape hatch selecting the solver implementation.
SOLVER_ENV = "REPRO_SOLVER"
SOLVER_MODES = ("incremental", "reference")


def solver_mode() -> str:
    """The solver selected by ``REPRO_SOLVER`` (default ``incremental``)."""
    mode = os.environ.get(SOLVER_ENV, "").strip() or "incremental"
    if mode not in SOLVER_MODES:
        raise SimulationError(
            f"unknown {SOLVER_ENV} mode {mode!r}; expected one of {SOLVER_MODES}"
        )
    return mode


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
    components share the call — the property the incremental solver and
    the replay solve memo rest on. Components are a few dozen
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

    mode: str  # "incremental" or "reference"
    solves: int  # rate re-solves actually performed
    rounds: int  # water-filling rounds across all solves
    components_solved: int  # component kernel invocations
    flows_solved: int  # sum of component sizes over all solves
    max_component: int  # largest component ever solved
    flows_advanced: int  # flow-progress updates applied by _advance
    solve_time_s: float  # wall time spent inside the solver

    @property
    def rounds_per_solve(self) -> float:
        return self.rounds / self.solves if self.solves else 0.0

    @property
    def mean_component(self) -> float:
        return (
            self.flows_solved / self.components_solved
            if self.components_solved
            else 0.0
        )

    def describe(self) -> str:
        return (
            f"solver[{self.mode}]: {self.solves} solves "
            f"({self.rounds_per_solve:.2f} rounds/solve), "
            f"{self.components_solved} components "
            f"(mean {self.mean_component:.1f}, max {self.max_component} flows), "
            f"{self.flows_advanced} flow advances, "
            f"{self.solve_time_s * 1e3:.2f}ms solve time"
        )


class Flow:
    """One in-flight transfer across a path of resources.

    While active, ``remaining``/``rate`` are views into the owning
    network's slot vectors (so progress accrual and the next-completion
    search are single array operations); once detached the last values
    are kept locally so completed/cancelled flows stay inspectable.
    """

    __slots__ = (
        "fid",
        "nbytes",
        "resources",
        "res_ids",
        "rate_cap",
        "on_complete",
        "meta",
        "start_time",
        "_net",
        "_slot",
        "_remaining",
        "_rate",
    )

    def __init__(
        self,
        fid: int,
        nbytes: float,
        resources: tuple,
        res_ids,
        rate_cap: Optional[float],
        on_complete: Optional[Callable],
        meta,
        start_time: float,
    ):
        self.fid = fid
        self.nbytes = float(nbytes)
        self.resources = resources
        self.res_ids = res_ids  # tuple of network-local resource ids
        self.rate_cap = rate_cap
        self.on_complete = on_complete
        self.meta = meta
        self.start_time = start_time
        self._net: Optional["FlowNetwork"] = None
        self._slot = -1
        self._remaining = float(nbytes)
        self._rate = 0.0

    @property
    def remaining(self) -> float:
        net = self._net
        if net is not None:
            return float(net._rem[self._slot])
        return self._remaining

    @remaining.setter
    def remaining(self, value: float) -> None:
        net = self._net
        if net is not None:
            net._rem[self._slot] = value
        else:
            self._remaining = float(value)

    @property
    def rate(self) -> float:
        net = self._net
        if net is not None:
            return float(net._rate_vec[self._slot])
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        net = self._net
        if net is not None:
            net._rate_vec[self._slot] = value
        else:
            self._rate = float(value)

    def eta(self) -> float:
        """Seconds until completion at the current rate (inf when stalled)."""
        remaining = self.remaining
        if remaining <= _EPSILON_BYTES:
            return 0.0
        rate = self.rate
        if rate <= 0.0:
            return float("inf")
        return remaining / rate

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.fid} {self.remaining:.0f}/{self.nbytes:.0f}B "
            f"@{self.rate:.4g}B/s meta={self.meta!r}>"
        )


class FlowNetwork:
    """Progressive-filling fluid network bound to a simulation engine.

    ``solver`` selects the re-solve strategy (defaults to the
    ``REPRO_SOLVER`` environment variable, then ``"incremental"``):

    * ``"incremental"`` — persistent state, component tracking, re-solve
      only what changed (the production path);
    * ``"reference"`` — stateless from-scratch partition + solve of every
      active flow on each change (the differential-testing baseline).
    """

    def __init__(self, engine: Engine, solver: Optional[str] = None):
        self.engine = engine
        self.solver = solver if solver is not None else solver_mode()
        if self.solver not in SOLVER_MODES:
            raise SimulationError(
                f"unknown solver {self.solver!r}; expected one of {SOLVER_MODES}"
            )
        self._next_fid = 0
        self._last_update = engine.now
        self._completion_event: Optional[EventHandle] = None
        self._resolve_event: Optional[EventHandle] = None
        self.completed_count = 0
        self.total_bytes_transferred = 0.0
        # Resource registry: network-local integer ids + capacity list.
        self._res_index: dict = {}
        self._capacities: list = []
        # Path cache: resource tuple -> id tuple (machines cache plans, so
        # identical paths arrive as identical tuples).
        self._path_ids: dict = {}
        # Slot pool: persistent per-flow vectors updated in place. A slot
        # is claimed on add_flow and recycled on completion/cancel; the
        # fid -> slot map gives O(1) membership tests and removal.
        self._rem = np.empty(0)  # remaining bytes per slot
        self._rate_vec = np.empty(0)  # current rate per slot
        self._slot_flow: list = []  # slot -> Flow (None when free)
        self._free_slots: list = []
        self._fid_slot: dict = {}  # fid -> slot, insertion ordered
        self._slots_np = np.empty(0, dtype=np.int64)
        self._slots_stale = True
        # Contention components (incremental mode): disjoint groups of
        # flows connected through shared resources. Components merge
        # eagerly on add_flow and are repartitioned opportunistically
        # after enough removals — the kernel's grouping independence
        # makes both operations timing-neutral.
        self._next_comp = 0
        self._flow_comp: dict = {}  # fid -> comp id
        self._comp_flows: dict = {}  # comp id -> {fid: Flow} (insertion order)
        self._comp_res: dict = {}  # comp id -> set of resource ids
        self._res_comp: dict = {}  # resource id -> comp id
        self._comp_removals: dict = {}  # comp id -> removals since repartition
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

    # -- public API ------------------------------------------------------
    def add_flow(
        self,
        nbytes: float,
        resources: Iterable[Resource],
        on_complete: Optional[Callable] = None,
        rate_cap: Optional[float] = None,
        meta=None,
    ) -> Flow:
        """Start a transfer; ``on_complete(flow)`` fires at delivery time.

        Zero-byte transfers complete via a zero-delay event so callers
        always observe completion asynchronously (no re-entrancy).
        """
        if nbytes < 0:
            raise SimulationError(f"flow cannot carry {nbytes} bytes")
        if rate_cap is not None:
            if not rate_cap > 0:  # NaN included
                raise SimulationError(
                    f"flow rate cap must be positive, got {rate_cap}"
                )
            rate_cap = float(rate_cap)  # the kernel compares float caps
        path = tuple(resources)
        flow = Flow(
            self._next_fid,
            nbytes,
            path,
            self._ids_for(path),
            rate_cap,
            on_complete,
            meta,
            self.engine.now,
        )
        self._next_fid += 1
        if nbytes <= _EPSILON_BYTES:
            self.engine.schedule(0.0, self._finish_flow, flow)
            return flow
        if not path and rate_cap is None:
            raise SimulationError("flow has no resources and no rate cap")
        self._advance()
        self._claim_slot(flow)
        for res in path:
            res.attach(flow)
        if self.solver == "incremental":
            self._comp_add(flow)
        self._schedule_resolve()
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        """Abort an in-flight transfer without firing its callback."""
        slot = self._fid_slot.get(flow.fid)
        if slot is None or self._slot_flow[slot] is not flow:
            return
        self._advance()
        self._remove(flow)
        self._schedule_resolve()

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
            mode=self.solver,
            solves=self._stat_solves,
            rounds=self._stat_rounds,
            components_solved=self._stat_components,
            flows_solved=self._stat_flows_solved,
            max_component=self._stat_max_component,
            flows_advanced=self._stat_flows_advanced,
            solve_time_s=self._stat_solve_time,
        )

    def _schedule_resolve(self) -> None:
        if self._resolve_event is None:
            self._resolve_event = self.engine.schedule(0.0, self._deferred_resolve)

    def _deferred_resolve(self) -> None:
        self._resolve_event = None
        self._resolve()

    @property
    def active_count(self) -> int:
        return len(self._fid_slot)

    @property
    def active(self) -> List[Flow]:
        """Active flows ordered by fid (a snapshot; do not mutate)."""
        slot_flow = self._slot_flow
        fid_slot = self._fid_slot
        return [slot_flow[fid_slot[fid]] for fid in sorted(fid_slot)]

    # -- resource / path indexing -------------------------------------------
    def _ids_for(self, path: tuple):
        ids = self._path_ids.get(path)
        if ids is None:
            out = []
            for res in path:
                idx = self._res_index.get(res)
                if idx is None:
                    idx = len(self._capacities)
                    self._res_index[res] = idx
                    self._capacities.append(res.capacity)
                out.append(idx)
            ids = self._path_ids[path] = tuple(out)
        return ids

    # -- slot pool ---------------------------------------------------------
    def _claim_slot(self, flow: Flow) -> None:
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._slot_flow)
            self._slot_flow.append(None)
            if slot >= len(self._rem):
                grow = max(16, 2 * len(self._rem))
                for name in ("_rem", "_rate_vec"):
                    old = getattr(self, name)
                    fresh = np.zeros(grow)
                    fresh[: len(old)] = old
                    setattr(self, name, fresh)
        self._slot_flow[slot] = flow
        self._fid_slot[flow.fid] = slot
        self._rem[slot] = flow._remaining
        self._rate_vec[slot] = 0.0
        flow._net = self
        flow._slot = slot
        self._slots_stale = True

    def _release_slot(self, flow: Flow) -> None:
        slot = self._fid_slot.pop(flow.fid)
        flow._remaining = float(self._rem[slot])
        flow._rate = float(self._rate_vec[slot])
        flow._net = None
        flow._slot = -1
        self._slot_flow[slot] = None
        self._free_slots.append(slot)
        self._slots_stale = True

    def _active_slots(self) -> np.ndarray:
        if self._slots_stale:
            n = len(self._fid_slot)
            self._slots_np = np.fromiter(
                self._fid_slot.values(), dtype=np.int64, count=n
            )
            self._slots_stale = False
        return self._slots_np

    # -- component tracking ------------------------------------------------
    def _comp_add(self, flow: Flow) -> None:
        comp_flows = self._comp_flows
        found: list = []
        for rid in flow.res_ids:
            c = self._res_comp.get(rid)
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
                for fid in moved:
                    self._flow_comp[fid] = target
                res = self._comp_res.pop(c)
                self._comp_res[target] |= res
                for rid in res:
                    self._res_comp[rid] = target
                self._dirty_comps.discard(c)
                if c in self._split_comps:
                    self._split_comps.discard(c)
                    self._split_comps.add(target)
                self._comp_removals[target] = self._comp_removals.pop(
                    target, 0
                ) + self._comp_removals.pop(c, 0)
        for rid in flow.res_ids:
            self._res_comp[rid] = target
            self._comp_res[target].add(rid)
        comp_flows[target][flow.fid] = flow
        self._flow_comp[flow.fid] = target
        self._dirty_comps.add(target)

    def _comp_remove(self, flow: Flow) -> None:
        fid = flow.fid
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
        # Repartition once removals rival the component's size: keeps
        # stale merges from congealing everything into one mega-component
        # while amortising the O(component) rebuild over many removals.
        if removed >= max(4, len(flows)):
            self._split_comps.add(c)
            self._comp_removals.pop(c, None)
        else:
            self._comp_removals[c] = removed

    @staticmethod
    def _partition(flows: List[Flow]) -> List[List[Flow]]:
        """Group fid-ordered *flows* into contention components.

        Union-find over resource ids; groups come back ordered by their
        first flow's fid with members in fid order — fully deterministic.
        """
        parent: dict = {}

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        keys: list = []
        for flow in flows:
            base = None
            for rid in flow.res_ids:
                if rid not in parent:
                    parent[rid] = rid
                root = find(rid)
                if base is None:
                    base = root
                elif root != base:
                    parent[root] = base
            keys.append(base)

        groups: dict = {}
        ordered: list = []
        for flow, key in zip(flows, keys):
            gkey = ("f", flow.fid) if key is None else ("r", find(key))
            group = groups.get(gkey)
            if group is None:
                groups[gkey] = group = []
                ordered.append(group)
            group.append(flow)
        return ordered

    def _repartition_comp(self, c: int) -> None:
        """Rebuild one component's grouping from its surviving flows."""
        flows = self._comp_flows.pop(c)
        for rid in self._comp_res.pop(c):
            if self._res_comp.get(rid) == c:
                del self._res_comp[rid]
        self._dirty_comps.discard(c)
        self._comp_removals.pop(c, None)
        ordered = [flows[fid] for fid in sorted(flows)]
        for group in self._partition(ordered):
            nc = self._next_comp
            self._next_comp += 1
            self._comp_flows[nc] = {f.fid: f for f in group}
            res: set = set()
            for f in group:
                res.update(f.res_ids)
            self._comp_res[nc] = res
            for rid in res:
                self._res_comp[rid] = nc
            for f in group:
                self._flow_comp[f.fid] = nc
            self._dirty_comps.add(nc)

    # -- internals ---------------------------------------------------------
    def _remove(self, flow: Flow) -> None:
        if self.solver == "incremental":
            self._comp_remove(flow)
        self._release_slot(flow)
        for res in flow.resources:
            res.detach(flow)

    def _advance(self) -> None:
        """Accrue progress for every active flow up to the current time."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0.0 and self._fid_slot:
            slots = self._active_slots()
            progressed = self._rem[slots] - self._rate_vec[slots] * elapsed
            np.maximum(progressed, 0.0, out=progressed)
            self._rem[slots] = progressed
            self._stat_flows_advanced += len(slots)
        self._last_update = now

    def _solve_rates(self) -> None:
        """Re-run progressive filling for whatever changed.

        Incremental mode solves only the dirty components; reference
        mode repartitions and solves every active flow from scratch.
        Both call the same grouping-independent kernel, so they assign
        bitwise-identical rates.
        """
        if self.solver == "reference":
            if not self._fid_slot:
                return
            start = perf_counter()  # det: allow — telemetry, not sim state
            for group in self._partition(self.active):
                self._solve_component(group)
            self._stat_solves += 1
            self._stat_solve_time += perf_counter() - start  # det: allow
            return
        if not self._dirty_comps and not self._split_comps:
            return
        start = perf_counter()  # det: allow — telemetry, not sim state
        if self._split_comps:
            for c in sorted(self._split_comps):
                if c in self._comp_flows:
                    self._repartition_comp(c)
            self._split_comps.clear()
        for c in sorted(self._dirty_comps):
            flows = self._comp_flows[c]
            self._solve_component([flows[fid] for fid in sorted(flows)])
        self._dirty_comps.clear()
        self._stat_solves += 1
        self._stat_solve_time += perf_counter() - start  # det: allow

    def _solve_component(self, flows: List[Flow]) -> None:
        """Progressive filling (:func:`water_fill`) for one contention
        component, writing each flow's rate into its slot."""
        n = len(flows)
        rates, rounds = water_fill(
            [f.res_ids for f in flows],
            self._capacities,
            [_INF if f.rate_cap is None else f.rate_cap for f in flows],
        )
        rate_vec = self._rate_vec
        for f, rate in zip(flows, rates):
            rate_vec[f._slot] = rate
        self._stat_rounds += rounds
        self._stat_components += 1
        self._stat_flows_solved += n
        if n > self._stat_max_component:
            self._stat_max_component = n

    def _resolve(self) -> None:
        """Re-solve rates and reschedule the next completion event."""
        self._solve_rates()
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._fid_slot:
            return
        slots = self._active_slots()
        remaining = self._rem[slots]
        rates = self._rate_vec[slots]
        etas = np.full(slots.shape[0], np.inf)
        flowing = rates > 0.0
        if flowing.any():
            etas[flowing] = remaining[flowing] / rates[flowing]
        etas[remaining <= _EPSILON_BYTES] = 0.0
        next_eta = float(etas.min())
        if next_eta == float("inf"):
            raise SimulationError(
                f"{slots.shape[0]} active flow(s) are stalled at zero rate"
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
        slots = self._active_slots()
        done = self._rem[slots] <= _EPSILON_BYTES
        if not done.any():
            # Rates changed since the event was scheduled; just re-arm.
            self._resolve()
            return
        finished = sorted(
            (self._slot_flow[s] for s in slots[done]), key=lambda f: f.fid
        )
        for flow in finished:
            self._remove(flow)
        self._resolve()
        for flow in finished:
            self._finish_flow(flow)

    def _finish_flow(self, flow: Flow) -> None:
        flow.remaining = 0.0
        self.completed_count += 1
        self.total_bytes_transferred += flow.nbytes
        if flow.on_complete is not None:
            flow.on_complete(flow)
