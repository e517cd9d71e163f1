"""Tests for rank-to-node placement policies."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PlacementError
from repro.machine import blocked, round_robin, custom, make_placement


class TestBlocked:
    def test_fills_nodes_in_order(self):
        p = blocked(10, nodes=4, cores_per_node=4)
        assert [p.node_of(r) for r in range(10)] == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]

    def test_paper_default_16_ranks_one_hornet_node(self):
        # "All data transmissions occur within one node when only 16
        # processes are launched" (24 cores per node).
        p = blocked(16, nodes=16, cores_per_node=24)
        assert p.used_nodes() == [0]
        assert all(p.same_node(0, r) for r in range(16))

    def test_64_ranks_span_three_hornet_nodes(self):
        p = blocked(64, nodes=16, cores_per_node=24)
        assert p.used_nodes() == [0, 1, 2]
        assert len(p.ranks_on(2)) == 64 - 48

    def test_ring_neighbours_mostly_intra_node(self):
        p = blocked(64, nodes=16, cores_per_node=24)
        inter = sum(
            not p.same_node(r, (r + 1) % 64) for r in range(64)
        )
        assert inter == 3  # one crossing per node boundary + wraparound

    def test_capacity_checked(self):
        with pytest.raises(PlacementError):
            blocked(100, nodes=2, cores_per_node=4)

    def test_needs_positive_ranks(self):
        with pytest.raises(PlacementError):
            blocked(0, nodes=1, cores_per_node=1)


class TestRoundRobin:
    def test_cycles_over_same_node_count_as_blocked(self):
        rr = round_robin(10, nodes=8, cores_per_node=4)
        bl = blocked(10, nodes=8, cores_per_node=4)
        assert rr.used_nodes() == bl.used_nodes()

    def test_neighbours_land_on_distinct_nodes(self):
        p = round_robin(12, nodes=4, cores_per_node=4)
        assert all(not p.same_node(r, (r + 1) % 12) for r in range(12))

    def test_single_node_degenerates(self):
        p = round_robin(4, nodes=4, cores_per_node=8)
        assert p.used_nodes() == [0]


class TestCustom:
    def test_explicit_mapping(self):
        p = custom([2, 0, 2], nodes=3)
        assert p.node_of(0) == 2
        assert p.ranks_on(2) == [0, 2]
        assert p.ranks_on(1) == []

    def test_out_of_range_node_rejected(self):
        with pytest.raises(PlacementError):
            custom([0, 5], nodes=3)


class TestQueries:
    def test_bad_rank_and_node_queries(self):
        p = blocked(4, nodes=2, cores_per_node=2)
        with pytest.raises(PlacementError):
            p.node_of(4)
        with pytest.raises(PlacementError):
            p.ranks_on(2)

    def test_repr(self):
        assert "blocked" in repr(blocked(4, nodes=2, cores_per_node=2))


class TestFactory:
    def test_by_name(self):
        p = make_placement("blocked", 4, 2, 2)
        assert p.policy == "blocked"
        p = make_placement("round_robin", 4, 2, 2)
        assert p.policy == "round_robin"

    def test_by_callable(self):
        p = make_placement(lambda n, nodes, cpn: custom([0] * n, nodes), 3, 2, 4)
        assert p.policy == "custom"

    def test_passthrough_instance(self):
        p = custom([0, 1], nodes=2)
        assert make_placement(p, 2, 2, 1) is p

    def test_unknown_name(self):
        with pytest.raises(PlacementError):
            make_placement("spiral", 4, 2, 2)


@given(
    nranks=st.integers(min_value=1, max_value=200),
    cores=st.integers(min_value=1, max_value=32),
)
def test_property_blocked_partition(nranks, cores):
    """Blocked placement partitions ranks into contiguous full-then-partial
    node groups covering every rank exactly once."""
    nodes = -(-nranks // cores)
    p = blocked(nranks, nodes=nodes, cores_per_node=cores)
    seen = []
    for node in p.used_nodes():
        ranks = p.ranks_on(node)
        assert ranks == sorted(ranks)
        assert len(ranks) <= cores
        seen.extend(ranks)
    assert seen == list(range(nranks))
    # All but the last used node are full.
    for node in p.used_nodes()[:-1]:
        assert len(p.ranks_on(node)) == cores
