"""Tests for the fabric topologies."""

from collections import deque
from itertools import permutations

import pytest

from repro.errors import MachineError
from repro.machine import CrossbarTopology, DragonflyTopology, FatTreeTopology

GIB = 1 << 30


def bfs_path(adjacency, src, dst):
    """Shortest path from *src* to *dst* in ``{vertex: {neighbour: label}}``."""
    parent = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return path[::-1]


def fattree_adjacency(nodes, radix):
    """A leaf/spine fat tree written out link by link: each edge is
    labelled with the fabric link it crosses, or None for a node's own
    port on its leaf switch."""
    n_leaves = -(-nodes // radix)
    adjacency = {"spine": {}}
    for l in range(n_leaves):
        adjacency[("leaf", l)] = {"spine": f"leaf{l}.up"}
        adjacency["spine"][("leaf", l)] = f"leaf{l}.down"
    for n in range(nodes):
        leaf = ("leaf", n // radix)
        adjacency[("node", n)] = {leaf: None}
        adjacency[leaf][("node", n)] = None
    return adjacency


class TestCrossbar:
    def test_ideal_has_no_fabric_resources(self):
        topo = CrossbarTopology(8, nic_bw=GIB)
        route = topo.route(0, 5)
        assert route.resources == ()
        assert route.hops == 2
        assert topo.all_resources() == []

    def test_tapered_core_shared_by_all_routes(self):
        topo = CrossbarTopology(8, nic_bw=GIB, core_taper=0.5)
        r1 = topo.route(0, 5)
        r2 = topo.route(3, 7)
        assert r1.resources == r2.resources
        assert r1.resources[0].capacity == pytest.approx(0.5 * 8 * GIB)

    def test_route_cached(self):
        topo = CrossbarTopology(4, nic_bw=GIB)
        assert topo.route(0, 1) is topo.route(0, 1)

    def test_self_route_rejected(self):
        with pytest.raises(MachineError):
            CrossbarTopology(4, nic_bw=GIB).route(2, 2)

    def test_bad_node_rejected(self):
        with pytest.raises(MachineError):
            CrossbarTopology(4, nic_bw=GIB).route(0, 4)

    def test_bad_params(self):
        with pytest.raises(MachineError):
            CrossbarTopology(0, nic_bw=GIB)
        with pytest.raises(MachineError):
            CrossbarTopology(4, nic_bw=0)
        with pytest.raises(MachineError):
            CrossbarTopology(4, nic_bw=GIB, core_taper=-1)

    def test_graph_is_star(self):
        """The tapered crossbar is a star: every route crosses its core."""
        topo = CrossbarTopology(5, nic_bw=GIB, core_taper=0.5)
        for src, dst in permutations(range(5), 2):
            route = topo.route(src, dst)
            assert route.hops == 2
            assert route.resources == (topo.core,)


class TestFatTree:
    def test_same_leaf_no_fabric(self):
        topo = FatTreeTopology(8, nic_bw=GIB, radix=4)
        assert topo.route(0, 3).resources == ()
        assert topo.route(0, 3).hops == 2

    def test_cross_leaf_uses_up_and_down(self):
        topo = FatTreeTopology(8, nic_bw=GIB, radix=4, uplink_taper=0.5)
        route = topo.route(1, 6)
        assert route.hops == 4
        names = [r.name for r in route.resources]
        assert names == ["leaf0.up", "leaf1.down"]
        assert route.resources[0].capacity == pytest.approx(0.5 * 4 * GIB)

    def test_reverse_route_uses_other_links(self):
        topo = FatTreeTopology(8, nic_bw=GIB, radix=4)
        fwd = {r.name for r in topo.route(0, 7).resources}
        rev = {r.name for r in topo.route(7, 0).resources}
        assert fwd.isdisjoint(rev)

    def test_leaf_count_rounds_up(self):
        assert FatTreeTopology(9, nic_bw=GIB, radix=4).n_leaves == 3

    def test_bad_params(self):
        with pytest.raises(MachineError):
            FatTreeTopology(4, nic_bw=GIB, radix=0)
        with pytest.raises(MachineError):
            FatTreeTopology(4, nic_bw=GIB, uplink_taper=0)

    def test_graph_routes_match_resources(self):
        """Every route crosses exactly the links of the shortest path
        through an independently written fat tree, in path order."""
        topo = FatTreeTopology(9, nic_bw=GIB, radix=4)
        adjacency = fattree_adjacency(9, radix=4)
        listed = {id(r) for r in topo.all_resources()}
        for src, dst in permutations(range(9), 2):
            path = bfs_path(adjacency, ("node", src), ("node", dst))
            links = [adjacency[u][v] for u, v in zip(path, path[1:])]
            route = topo.route(src, dst)
            assert route.hops == len(path) - 1
            assert [r.name for r in route.resources] == [
                link for link in links if link is not None
            ]
            assert all(id(r) in listed for r in route.resources)


class TestDragonfly:
    def test_same_group_local_only(self):
        topo = DragonflyTopology(8, nic_bw=GIB, group_size=4)
        route = topo.route(0, 3)
        assert [r.kind for r in route.resources] == ["fabric-local"]

    def test_cross_group_path(self):
        topo = DragonflyTopology(8, nic_bw=GIB, group_size=4, global_taper=0.25)
        route = topo.route(0, 5)
        kinds = [r.kind for r in route.resources]
        assert kinds == [
            "fabric-local",
            "fabric-global",
            "fabric-global",
            "fabric-local",
        ]
        assert route.hops > topo.route(0, 3).hops
        # Global capacity is tapered: 0.25 * 4 * nic.
        assert route.resources[1].capacity == pytest.approx(0.25 * 4 * GIB)

    def test_groups_round_up(self):
        assert DragonflyTopology(9, nic_bw=GIB, group_size=4).n_groups == 3

    def test_all_resources_deterministic_order(self):
        topo = DragonflyTopology(8, nic_bw=GIB, group_size=4)
        names = [r.name for r in topo.all_resources()]
        assert names == [
            "grp0.local",
            "grp0.gout",
            "grp0.gin",
            "grp1.local",
            "grp1.gout",
            "grp1.gin",
        ]

    def test_bad_params(self):
        with pytest.raises(MachineError):
            DragonflyTopology(4, nic_bw=GIB, group_size=0)
        with pytest.raises(MachineError):
            DragonflyTopology(4, nic_bw=GIB, global_taper=0)

    def test_graph_is_connected(self):
        """Every node pair has a route, over resources the topology lists."""
        topo = DragonflyTopology(10, nic_bw=GIB, group_size=4)
        listed = {id(r) for r in topo.all_resources()}
        for src, dst in permutations(range(10), 2):
            route = topo.route(src, dst)
            assert route.resources
            assert all(id(r) in listed for r in route.resources)
