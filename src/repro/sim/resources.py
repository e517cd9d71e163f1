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

    __slots__ = ("name", "capacity", "kind")

    def __init__(self, name: str, capacity: float, kind: str = "generic"):
        if not 0 < capacity < float("inf"):  # NaN fails too
            raise SimulationError(
                f"resource {name!r} needs a finite positive capacity, "
                f"got {capacity}"
            )
        self.name = name
        self.capacity = float(capacity)
        self.kind = kind

    def __repr__(self) -> str:
        return f"<Resource {self.name} kind={self.kind} cap={self.capacity:.4g}B/s>"
