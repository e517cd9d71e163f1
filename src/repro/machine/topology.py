"""Fabric topology base class and the ideal/aggregate crossbar.

A topology answers one question for the flow model: *which shared fabric
resources does a transfer between two nodes cross, and how many hops is
it?* Per-node NICs and memory engines are owned by
:class:`~repro.machine.machine.Machine`, so topology resources represent
only the switching fabric between NICs.

Every concrete topology also exposes itself as a :mod:`networkx` digraph
(:meth:`Topology.graph`) whose edges carry the backing
:class:`~repro.sim.resources.Resource`; tests cross-validate the routing
tables against shortest paths on that graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..errors import MachineError
from ..sim import Resource

if TYPE_CHECKING:  # networkx loads on first use, off the start-up path
    import networkx

__all__ = ["Route", "Topology", "CrossbarTopology"]


@dataclass(frozen=True)
class Route:
    """Fabric crossing for one (src_node, dst_node) pair."""

    hops: int
    resources: Tuple[Resource, ...]


class Topology:
    """Base class: validates node ids and caches computed routes."""

    name = "abstract"

    def __init__(self, nodes: int, nic_bw: float):
        if nodes < 1:
            raise MachineError(f"topology needs nodes >= 1, got {nodes}")
        if nic_bw <= 0:
            raise MachineError(f"topology needs nic_bw > 0, got {nic_bw}")
        self.nodes = nodes
        self.nic_bw = float(nic_bw)
        self._route_cache: Dict[Tuple[int, int], Route] = {}

    # -- public API --------------------------------------------------
    def route(self, src_node: int, dst_node: int) -> Route:
        """Fabric route between two distinct nodes (cached)."""
        self._check_node(src_node)
        self._check_node(dst_node)
        if src_node == dst_node:
            raise MachineError(
                "topology.route is for inter-node transfers; "
                f"both endpoints are node {src_node}"
            )
        key = (src_node, dst_node)
        cached = self._route_cache.get(key)
        if cached is None:
            cached = self._compute_route(src_node, dst_node)
            self._route_cache[key] = cached
        return cached

    def all_resources(self) -> List[Resource]:
        """Every fabric resource, deterministically ordered."""
        raise NotImplementedError

    def graph(self) -> "networkx.DiGraph":
        """The fabric as a digraph; edge attr ``resource`` may be None."""
        raise NotImplementedError

    def _compute_route(self, src_node: int, dst_node: int) -> Route:
        raise NotImplementedError

    # -- helpers -------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.nodes:
            raise MachineError(f"node {node} outside [0, {self.nodes})")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} nodes={self.nodes}>"


class CrossbarTopology(Topology):
    """Ideal single-switch fabric, optionally with an aggregate core cap.

    ``core_taper = None`` (default) models a full-bisection crossbar: the
    only inter-node bottlenecks are the per-node NICs. With a taper
    ``t``, one aggregate core resource of capacity ``t * nodes * nic_bw``
    is shared by *all* inter-node flows — the simplest way to express
    "the network core is provisioned below full bisection", which is
    what makes removing redundant ring transfers pay off at scale.
    """

    name = "crossbar"

    def __init__(self, nodes: int, nic_bw: float, core_taper: float = None):
        super().__init__(nodes, nic_bw)
        if core_taper is not None and not 0 < core_taper:
            raise MachineError(f"core_taper must be positive, got {core_taper}")
        self.core_taper = core_taper
        self.core: Resource = None
        if core_taper is not None:
            self.core = Resource(
                "core", core_taper * nodes * nic_bw, kind="fabric-core"
            )

    def _compute_route(self, src_node: int, dst_node: int) -> Route:
        resources = (self.core,) if self.core is not None else ()
        return Route(hops=2, resources=resources)

    def all_resources(self) -> List[Resource]:
        return [self.core] if self.core is not None else []

    def graph(self) -> "networkx.DiGraph":
        import networkx as nx

        g = nx.DiGraph()
        g.add_node("core", kind="switch")
        for n in range(self.nodes):
            g.add_node(("node", n), kind="node")
            g.add_edge(("node", n), "core", resource=self.core)
            g.add_edge("core", ("node", n), resource=self.core)
        return g
