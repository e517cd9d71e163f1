"""User-defined fabrics: route over an arbitrary networkx graph.

:class:`GraphTopology` lets experiments model any fabric: supply a
digraph whose nodes include ``("node", i)`` endpoints for every compute
node and whose edges carry a ``capacity`` attribute (bytes/s) or
``capacity=None`` for non-blocking hops. Routing is deterministic
shortest-path (hop count, ties broken lexicographically by path), and
each capacitated edge becomes one shared fluid resource.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from ..errors import MachineError
from ..sim import Resource
from .topology import Route, Topology

if TYPE_CHECKING:  # networkx loads on first use, off the start-up path
    import networkx

__all__ = ["GraphTopology", "node_key"]


def node_key(i: int) -> Tuple[str, int]:
    """Graph vertex naming convention for compute node *i*."""
    return ("node", i)


class GraphTopology(Topology):
    """Shortest-path routing over an explicit capacity graph."""

    name = "graph"

    def __init__(self, nodes: int, nic_bw: float, graph: "networkx.DiGraph"):
        super().__init__(nodes, nic_bw)
        for i in range(nodes):
            if node_key(i) not in graph:
                raise MachineError(
                    f"graph topology is missing vertex {node_key(i)!r}"
                )
        self._graph = graph
        self._edge_resources: Dict[tuple, Resource] = {}
        for u, v, data in sorted(graph.edges(data=True), key=lambda e: (str(e[0]), str(e[1]))):
            cap = data.get("capacity")
            if cap is None:
                continue
            if cap <= 0:
                raise MachineError(f"edge {u!r}->{v!r} has capacity {cap}")
            res = Resource(f"edge[{u}->{v}]", float(cap), kind="fabric-edge")
            self._edge_resources[(u, v)] = res
            data["resource"] = res

    def _compute_route(self, src_node: int, dst_node: int) -> Route:
        import networkx as nx

        src, dst = node_key(src_node), node_key(dst_node)
        try:
            # Deterministic tie-break: Dijkstra over unit weights with a
            # lexicographic secondary key via sorted neighbor iteration.
            path = nx.shortest_path(self._graph, src, dst)
        except nx.NetworkXNoPath:
            raise MachineError(
                f"no fabric path from node {src_node} to node {dst_node}"
            ) from None
        resources = []
        for u, v in zip(path, path[1:]):
            res = self._edge_resources.get((u, v))
            if res is not None:
                resources.append(res)
        return Route(hops=len(path) - 1, resources=tuple(resources))

    def all_resources(self) -> List[Resource]:
        return [self._edge_resources[k] for k in sorted(self._edge_resources, key=str)]

    def graph(self) -> "networkx.DiGraph":
        return self._graph
