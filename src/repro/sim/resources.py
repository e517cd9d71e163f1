"""Fluid capacity resources for the flow-level network model.

A :class:`Resource` is anything with a byte/s capacity that concurrent
transfers share: a rank's copy engine, a node's memory engine, a NIC
direction, a network link, or an aggregate core capacity. Flows claim a
*path* (a set of resources); the solver in :mod:`repro.sim.flows` splits
each resource's capacity among its active flows max-min fairly.
"""

from __future__ import annotations

from ..errors import SimulationError

__all__ = ["Resource"]


class Resource:
    """A capacity shared by the flows currently crossing it."""

    __slots__ = ("name", "capacity", "kind", "_flows", "_load")

    def __init__(self, name: str, capacity: float, kind: str = "generic"):
        if not 0 < capacity < float("inf"):  # NaN fails too
            raise SimulationError(
                f"resource {name!r} needs a finite positive capacity, "
                f"got {capacity}"
            )
        self.name = name
        self.capacity = float(capacity)
        self.kind = kind
        # Active flows keyed by flow id with an attach multiplicity (a
        # path may list the same resource more than once, charging the
        # flow's rate against it repeatedly). Dict insertion order keeps
        # iteration deterministic; keyed lookup makes detach O(1).
        self._flows: dict = {}
        self._load = 0

    def attach(self, flow) -> None:
        entry = self._flows.get(flow.fid)
        if entry is None:
            self._flows[flow.fid] = [flow, 1]
        else:
            entry[1] += 1
        self._load += 1

    def detach(self, flow) -> None:
        entry = self._flows.get(flow.fid)
        if entry is None or entry[0] is not flow:
            raise SimulationError(
                f"flow {flow!r} not attached to resource {self.name!r}"
            )
        if entry[1] == 1:
            del self._flows[flow.fid]
        else:
            entry[1] -= 1
        self._load -= 1

    @property
    def flows(self) -> list:
        """Attached flows in flow-id insertion order, repeated per
        multiplicity (a snapshot list; do not mutate)."""
        return [
            flow for flow, count in self._flows.values() for _ in range(count)
        ]

    @property
    def load(self) -> int:
        """Number of flow attachments currently crossing this resource."""
        return self._load

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name} kind={self.kind} "
            f"cap={self.capacity:.4g}B/s flows={self.load}>"
        )
