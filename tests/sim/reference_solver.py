"""From-scratch fluid solver: the oracle for FlowNetwork's incremental one.

:class:`ReferenceFlowNetwork` keeps :class:`~repro.sim.flows.FlowNetwork`'s
flow lifecycle, completion cascade and kernel, but drops the state that
makes re-solves cheap: it tracks no contention components and has no
solve memo. Every re-solve partitions all active flows from scratch and
runs one :func:`~repro.sim.flows.water_fill` per group.

It does so by overriding three of the network's hooks: ``_comp_add``
and ``_comp_remove`` only keep the set of active flows, and
``_solve_rates`` partitions and solves that set. The reference keeps no
dirty set, so it relies on ``FlowNetwork._resolve`` calling
``_solve_rates`` on every re-solve, with or without dirty components.
``tests/sim/test_solver_differential.py`` and
``benchmarks/test_solver_micro.py`` require the production network to
match it bit for bit.
"""

import dataclasses
from time import perf_counter

from repro.sim.flows import FlowNetwork, SolverStats


class ReferenceFlowNetwork(FlowNetwork):
    """:class:`FlowNetwork` re-deriving every component on each change."""

    def __init__(self, engine):
        super().__init__(engine)
        self._active = {}  # fid -> path class of every active flow

    def _comp_add(self, fid, cid):
        self._active[fid] = cid

    def _comp_remove(self, fid):
        del self._active[fid]

    def _solve_rates(self):
        if not self._active:
            return
        start = perf_counter()
        for group in self._partition(self._active):
            self._solve_component({fid: self._active[fid] for fid in group})
        self._stat_solves += 1
        self._stat_solve_time += perf_counter() - start

    def stats(self) -> SolverStats:
        return dataclasses.replace(super().stats(), mode="reference")
