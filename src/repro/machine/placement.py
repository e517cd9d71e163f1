"""Rank-to-node placement policies.

The paper notes that "all the processes are placed among the nodes in a
blocked manner by default on Hornet"; placement determines which ring
neighbours are intra-node (memory copies) versus inter-node (NIC +
fabric), so it materially shapes the broadcast bandwidth curves.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Union

from ..errors import PlacementError

__all__ = ["Placement", "blocked", "round_robin", "custom"]


class Placement:
    """An explicit rank -> node assignment with reverse lookups."""

    def __init__(self, node_of_rank: Sequence[int], nodes: int, policy: str):
        if nodes < 1:
            raise PlacementError(f"placement needs nodes >= 1, got {nodes}")
        if not node_of_rank:
            raise PlacementError("placement needs at least one rank")
        self._node_of = list(node_of_rank)
        self.nodes = nodes
        self.policy = policy
        self._by_node: Dict[int, List[int]] = {}
        for rank, node in enumerate(self._node_of):
            if not 0 <= node < nodes:
                raise PlacementError(
                    f"rank {rank} placed on node {node}, valid range is [0, {nodes})"
                )
            self._by_node.setdefault(node, []).append(rank)

    # -- queries ------------------------------------------------------
    @property
    def nranks(self) -> int:
        return len(self._node_of)

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise PlacementError(f"rank {rank} outside [0, {self.nranks})")
        return self._node_of[rank]

    def ranks_on(self, node: int) -> List[int]:
        """Ranks hosted by *node* in rank order (empty list if none)."""
        if not 0 <= node < self.nodes:
            raise PlacementError(f"node {node} outside [0, {self.nodes})")
        return list(self._by_node.get(node, []))

    def used_nodes(self) -> List[int]:
        """Nodes hosting at least one rank, ascending."""
        return sorted(self._by_node)

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.node_of(rank_a) == self.node_of(rank_b)

    def __repr__(self) -> str:
        return (
            f"<Placement {self.policy}: {self.nranks} ranks on "
            f"{len(self._by_node)}/{self.nodes} nodes>"
        )


def blocked(nranks: int, nodes: int, cores_per_node: int) -> Placement:
    """Fill nodes in order: ranks [0..c) on node 0, [c..2c) on node 1, ...

    This is the default `aprun`-style placement on the paper's Cray
    system.
    """
    _check(nranks, nodes, cores_per_node)
    return Placement(
        [rank // cores_per_node for rank in range(nranks)], nodes, "blocked"
    )


def round_robin(nranks: int, nodes: int, cores_per_node: int) -> Placement:
    """Cyclic placement: rank i on node ``i % used_nodes``.

    Spreads ring neighbours across nodes, maximising inter-node traffic —
    the adversarial counterpart to blocked placement used by the
    placement ablation.
    """
    _check(nranks, nodes, cores_per_node)
    used = min(nodes, -(-nranks // cores_per_node))
    # Use exactly as many nodes as blocked placement would, but cyclically.
    return Placement([rank % used for rank in range(nranks)], nodes, "round_robin")


def custom(node_of_rank: Iterable[int], nodes: int) -> Placement:
    """Fully explicit placement (used by tests and what-if experiments)."""
    return Placement(list(node_of_rank), nodes, "custom")


PlacementFactory = Union[str, Callable[[int, int, int], Placement]]

_POLICIES = {"blocked": blocked, "round_robin": round_robin}


def make_placement(
    policy: PlacementFactory, nranks: int, nodes: int, cores_per_node: int
) -> Placement:
    """Resolve a policy name or factory callable into a Placement."""
    if isinstance(policy, Placement):
        return policy
    if callable(policy):
        return policy(nranks, nodes, cores_per_node)
    try:
        factory = _POLICIES[policy]
    except KeyError:
        raise PlacementError(
            f"unknown placement policy {policy!r}; known: {sorted(_POLICIES)}"
        ) from None
    return factory(nranks, nodes, cores_per_node)


def _check(nranks: int, nodes: int, cores_per_node: int) -> None:
    if nranks < 1:
        raise PlacementError(f"need nranks >= 1, got {nranks}")
    if nranks > nodes * cores_per_node:
        raise PlacementError(
            f"{nranks} ranks exceed machine capacity "
            f"{nodes} nodes x {cores_per_node} cores = {nodes * cores_per_node}"
        )
