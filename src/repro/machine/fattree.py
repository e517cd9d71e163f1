"""Two-level fat-tree fabric (the "Laki" InfiniBand-style topology).

Nodes are grouped ``radix`` per leaf switch; each leaf owns one tapered
uplink and one downlink to an ideal spine. Transfers under the same leaf
cross no shared fabric resource (the leaf switch is non-blocking);
transfers between leaves cross the source leaf's uplink and the
destination leaf's downlink. The taper below 1.0 is what creates core
contention.
"""

from __future__ import annotations

from typing import List

from ..errors import MachineError
from ..sim import Resource
from .topology import Route, Topology

__all__ = ["FatTreeTopology"]


class FatTreeTopology(Topology):
    """Leaf/spine fat tree with per-leaf tapered uplinks."""

    name = "fattree"

    def __init__(
        self,
        nodes: int,
        nic_bw: float,
        radix: int = 16,
        uplink_taper: float = 0.5,
    ):
        super().__init__(nodes, nic_bw)
        if radix < 1:
            raise MachineError(f"fat-tree radix must be >= 1, got {radix}")
        if uplink_taper <= 0:
            raise MachineError(f"uplink_taper must be positive, got {uplink_taper}")
        self.radix = radix
        self.uplink_taper = uplink_taper
        self.n_leaves = -(-nodes // radix)
        uplink_cap = uplink_taper * radix * nic_bw
        self.uplinks = [
            Resource(f"leaf{l}.up", uplink_cap, kind="fabric-uplink")
            for l in range(self.n_leaves)
        ]
        self.downlinks = [
            Resource(f"leaf{l}.down", uplink_cap, kind="fabric-downlink")
            for l in range(self.n_leaves)
        ]

    def leaf_of(self, node: int) -> int:
        """Leaf switch hosting *node*."""
        self._check_node(node)
        return node // self.radix

    def _compute_route(self, src_node: int, dst_node: int) -> Route:
        src_leaf = self.leaf_of(src_node)
        dst_leaf = self.leaf_of(dst_node)
        if src_leaf == dst_leaf:
            return Route(hops=2, resources=())
        return Route(
            hops=4,
            resources=(self.uplinks[src_leaf], self.downlinks[dst_leaf]),
        )

    def all_resources(self) -> List[Resource]:
        out: List[Resource] = []
        for l in range(self.n_leaves):
            out.append(self.uplinks[l])
            out.append(self.downlinks[l])
        return out
