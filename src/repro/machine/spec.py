"""Machine specification: the calibrated constants of the cluster model.

A :class:`MachineSpec` collects everything the fluid network model needs
to know about a cluster — the multi-core layout, the intra-node (shared
memory) and inter-node (NIC + fabric) bandwidths and latencies, and the
host-side per-message costs. Presets approximating the paper's two
evaluation systems live in :mod:`repro.machine.presets`.

All bandwidths are bytes/second, all latencies seconds, all sizes bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from ..errors import MachineError
from ..util import GIB, KIB, MIB

__all__ = ["MachineSpec"]


@dataclass(frozen=True)
class MachineSpec:
    """Immutable description of a simulated cluster.

    Parameters mirror the physical effects Section IV of the paper argues
    the tuned broadcast exploits:

    * ``cpu_copy_bw`` — per-rank message-processing engine. Every
      transfer a rank sources or sinks crosses this resource, so a rank
      doing a full-duplex ``MPI_Sendrecv`` splits it between two flows
      ("cpu-interference" in the paper's words).
    * ``mem_bw`` — per-node memory engine shared by all copies touching
      the node (intra-node transfers cross it once; NIC traffic stages
      through it too).
    * ``nic_bw`` — per-node injection/ejection capacity, one resource per
      direction.
    * topology link capacities — tapered core bandwidth; the source of
      inter-node congestion ("the quantity of data transmission"
      degrading the network).
    * ``send_overhead``/``recv_overhead`` — fixed per-message host costs,
      the alpha-side analogue of the above.
    """

    name: str = "generic"

    # -- layout -----------------------------------------------------------
    nodes: int = 16
    cores_per_node: int = 24

    # -- latency ----------------------------------------------------------
    alpha_intra: float = 0.6e-6
    alpha_inter: float = 1.8e-6
    hop_latency: float = 0.3e-6
    send_overhead: float = 0.4e-6
    recv_overhead: float = 0.4e-6
    rendezvous_rtt: float = 2.0  # handshake cost, in units of alpha

    # -- bandwidth ---------------------------------------------------------
    cpu_copy_bw: float = 5.0 * GIB
    mem_bw: float = 40.0 * GIB
    nic_bw: float = 10.0 * GIB

    # -- protocol -----------------------------------------------------------
    eager_threshold: int = 8 * KIB

    # -- cache / memory-capacity effects ------------------------------------
    l3_bytes: int = 30 * MIB
    l3_penalty: float = 0.55  # copy-bandwidth multiplier past the L3
    mem_pressure_bytes: int = 1 * GIB
    mem_penalty: float = 0.7  # additional multiplier under memory pressure

    # -- topology ------------------------------------------------------------
    topology: str = "crossbar"
    topology_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # NaN slips through every ordered comparison below, and NaN or
        # inf rates stall the fluid solver, so reject them up front.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise MachineError(f"{f.name} must be finite, got {value}")
        if self.nodes < 1:
            raise MachineError(f"need at least one node, got {self.nodes}")
        if self.cores_per_node < 1:
            raise MachineError(
                f"need at least one core per node, got {self.cores_per_node}"
            )
        for attr in (
            "alpha_intra",
            "alpha_inter",
            "hop_latency",
            "send_overhead",
            "recv_overhead",
            "rendezvous_rtt",
        ):
            if getattr(self, attr) < 0:
                raise MachineError(f"{attr} must be >= 0")
        for attr in ("cpu_copy_bw", "mem_bw", "nic_bw"):
            if getattr(self, attr) <= 0:
                raise MachineError(f"{attr} must be positive")
        if self.eager_threshold < 0:
            raise MachineError("eager_threshold must be >= 0")
        for attr in ("l3_penalty", "mem_penalty"):
            if not 0 < getattr(self, attr) <= 1:
                raise MachineError(f"{attr} must be in (0, 1]")
        if self.l3_bytes <= 0 or self.mem_pressure_bytes <= 0:
            raise MachineError("cache thresholds must be positive")

    # -- derived -----------------------------------------------------------
    @property
    def total_cores(self) -> int:
        """Maximum number of ranks the machine can host."""
        return self.nodes * self.cores_per_node

    def with_(self, **changes) -> "MachineSpec":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human summary used by benchmark headers."""
        return (
            f"{self.name}: {self.nodes} nodes x {self.cores_per_node} cores, "
            f"topology={self.topology}, nic={self.nic_bw / GIB:.1f}GiB/s, "
            f"mem={self.mem_bw / GIB:.1f}GiB/s, copy={self.cpu_copy_bw / GIB:.1f}GiB/s"
        )
