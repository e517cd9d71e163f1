"""Simplified dragonfly fabric (the "Hornet" Cray Aries-style topology).

Nodes are partitioned into groups of ``group_size``. Each group owns

* a local crossbar resource shared by every flow entering or leaving any
  node of the group (Aries router/backplane capacity), and
* tapered global ingress/egress resources crossed by inter-group flows
  (the dragonfly's all-to-all optical links, aggregated per group).

Routes: same group = 1 fabric hop over the local crossbar; different
groups = local(src) -> global-out(src) -> global-in(dst) -> local(dst).
Adaptive/indirect routing is out of scope (DESIGN.md §7); the aggregate
per-group global capacity captures the contention that matters for the
broadcast study.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..errors import MachineError
from ..sim import Resource
from .topology import Route, Topology

if TYPE_CHECKING:  # networkx loads on first use, off the start-up path
    import networkx

__all__ = ["DragonflyTopology"]


class DragonflyTopology(Topology):
    """Group-based dragonfly with aggregate per-group global links."""

    name = "dragonfly"

    def __init__(
        self,
        nodes: int,
        nic_bw: float,
        group_size: int = 4,
        local_factor: float = 2.0,
        global_taper: float = 0.35,
    ):
        super().__init__(nodes, nic_bw)
        if group_size < 1:
            raise MachineError(f"group_size must be >= 1, got {group_size}")
        if local_factor <= 0 or global_taper <= 0:
            raise MachineError("local_factor and global_taper must be positive")
        self.group_size = group_size
        self.local_factor = local_factor
        self.global_taper = global_taper
        self.n_groups = -(-nodes // group_size)
        local_cap = local_factor * group_size * nic_bw
        global_cap = global_taper * group_size * nic_bw
        self.local = [
            Resource(f"grp{g}.local", local_cap, kind="fabric-local")
            for g in range(self.n_groups)
        ]
        self.global_out = [
            Resource(f"grp{g}.gout", global_cap, kind="fabric-global")
            for g in range(self.n_groups)
        ]
        self.global_in = [
            Resource(f"grp{g}.gin", global_cap, kind="fabric-global")
            for g in range(self.n_groups)
        ]

    def group_of(self, node: int) -> int:
        """Dragonfly group hosting *node*."""
        self._check_node(node)
        return node // self.group_size

    def _compute_route(self, src_node: int, dst_node: int) -> Route:
        src_g = self.group_of(src_node)
        dst_g = self.group_of(dst_node)
        if src_g == dst_g:
            return Route(hops=2, resources=(self.local[src_g],))
        return Route(
            hops=5,
            resources=(
                self.local[src_g],
                self.global_out[src_g],
                self.global_in[dst_g],
                self.local[dst_g],
            ),
        )

    def all_resources(self) -> List[Resource]:
        out: List[Resource] = []
        for g in range(self.n_groups):
            out.extend((self.local[g], self.global_out[g], self.global_in[g]))
        return out

    def graph(self) -> "networkx.DiGraph":
        import networkx as nx

        g = nx.DiGraph()
        for gi in range(self.n_groups):
            g.add_node(("router", gi), kind="switch")
        # All-to-all global links between group routers.
        for a in range(self.n_groups):
            for b in range(self.n_groups):
                if a != b:
                    g.add_edge(("router", a), ("router", b), resource=self.global_out[a])
        for n in range(self.nodes):
            gi = self.group_of(n)
            g.add_node(("node", n), kind="node")
            g.add_edge(("node", n), ("router", gi), resource=self.local[gi])
            g.add_edge(("router", gi), ("node", n), resource=self.local[gi])
        return g
