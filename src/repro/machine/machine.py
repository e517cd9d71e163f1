"""The Machine: spec + topology + placement + live fluid resources.

A :class:`Machine` instantiates every shared capacity the flow model
needs — one copy engine per rank, one memory engine and one NIC pair per
used node, plus whatever fabric resources the topology defines — and
answers :meth:`transfer_plan` queries from the MPI transport: *"rank a
sends n bytes to rank b; which resources does the flow cross, what is
the latency, and is there a per-flow rate cap?"*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import MachineError
from ..sim import Resource
from .cache import copy_effectiveness, working_set_bytes
from .dragonfly import DragonflyTopology
from .fattree import FatTreeTopology
from .placement import Placement, make_placement
from .spec import MachineSpec
from .topology import CrossbarTopology, Topology

__all__ = ["Machine", "TransferPlan", "build_topology"]


def build_topology(spec: MachineSpec) -> Topology:
    """Instantiate the topology named by ``spec.topology``."""
    params = dict(spec.topology_params)
    if spec.topology == "crossbar":
        return CrossbarTopology(spec.nodes, spec.nic_bw, **params)
    if spec.topology == "fattree":
        return FatTreeTopology(spec.nodes, spec.nic_bw, **params)
    if spec.topology == "dragonfly":
        return DragonflyTopology(spec.nodes, spec.nic_bw, **params)
    raise MachineError(
        f"unknown topology {spec.topology!r}; known: crossbar, fattree, dragonfly"
    )


@dataclass(frozen=True)
class TransferPlan:
    """Everything the transport needs to move one message."""

    latency: float
    resources: Tuple[Resource, ...]
    rate_cap: Optional[float]
    intra_node: bool


class Machine:
    """A running cluster instance hosting ``nranks`` MPI ranks."""

    def __init__(
        self,
        spec: MachineSpec,
        nranks: int,
        placement="blocked",
        cpu_scale=None,
    ):
        """``cpu_scale`` optionally injects heterogeneity: a mapping
        ``{rank: factor}`` (or a full per-rank sequence) scaling each
        rank's copy-engine capacity — factors < 1 model stragglers
        (thermal throttling, OS noise pinned to a core), factors > 1
        faster nodes."""
        if nranks < 1:
            raise MachineError(f"need nranks >= 1, got {nranks}")
        if nranks > spec.total_cores:
            raise MachineError(
                f"{nranks} ranks exceed capacity {spec.total_cores} "
                f"({spec.nodes} nodes x {spec.cores_per_node} cores)"
            )
        self.spec = spec
        self.nranks = nranks
        self.placement: Placement = make_placement(
            placement, nranks, spec.nodes, spec.cores_per_node
        )
        self.topology = build_topology(spec)

        # Per-rank copy engines; per-node memory engines and NIC pairs.
        scales = self._resolve_cpu_scale(cpu_scale, nranks)
        self.cpu = [
            Resource(f"rank{r}.cpu", spec.cpu_copy_bw * scales[r], kind="cpu")
            for r in range(nranks)
        ]
        self.mem = {}
        self.nic_out = {}
        self.nic_in = {}
        for node in self.placement.used_nodes():
            self.mem[node] = Resource(f"node{node}.mem", spec.mem_bw, kind="mem")
            self.nic_out[node] = Resource(
                f"node{node}.nic.out", spec.nic_bw, kind="nic"
            )
            self.nic_in[node] = Resource(f"node{node}.nic.in", spec.nic_bw, kind="nic")

        # The working set modulates the per-flow copy-rate cap (cache and
        # memory-capacity effects); jobs set it per collective invocation.
        self._working_set = 0
        # Plans are static per (src, dst) under a fixed working set; the
        # cache also keeps path tuples identical across calls, which the
        # flow network exploits for its id-array cache.
        self._plan_cache = {}

    @staticmethod
    def _resolve_cpu_scale(cpu_scale, nranks: int):
        if cpu_scale is None:
            return [1.0] * nranks
        if isinstance(cpu_scale, dict):
            scales = [1.0] * nranks
            for rank, factor in cpu_scale.items():
                if not 0 <= rank < nranks:
                    raise MachineError(f"cpu_scale rank {rank} outside [0, {nranks})")
                scales[rank] = float(factor)
        else:
            scales = [float(f) for f in cpu_scale]
            if len(scales) != nranks:
                raise MachineError(
                    f"cpu_scale needs {nranks} factors, got {len(scales)}"
                )
        for rank, factor in enumerate(scales):
            if factor <= 0:
                raise MachineError(
                    f"cpu_scale factor for rank {rank} must be positive, got {factor}"
                )
        return scales

    # -- working-set control -------------------------------------------------
    def set_working_set(self, buffer_bytes: int) -> None:
        """Declare the collective's buffer size for cache-effect modelling."""
        if buffer_bytes < 0:
            raise MachineError(f"buffer_bytes must be >= 0, got {buffer_bytes}")
        if buffer_bytes != self._working_set:
            self._working_set = buffer_bytes
            self._plan_cache.clear()

    def copy_rate_cap(self, rank: int) -> Optional[float]:
        """Per-flow cap on rank's copy rate under the current working set."""
        if self._working_set == 0:
            return None
        node = self.placement.node_of(rank)
        ws = working_set_bytes(self._working_set, len(self.placement.ranks_on(node)))
        eff = copy_effectiveness(self.spec, ws)
        if eff >= 1.0:
            return None
        return self.spec.cpu_copy_bw * eff

    # -- queries -----------------------------------------------------------
    def all_resources(self) -> Tuple[Resource, ...]:
        """Every shared capacity of the machine, deterministically ordered:
        per-rank copy engines, then per-used-node memory engines and NIC
        pairs, then the topology's fabric resources. This is the link
        universe the static cost model accumulates byte loads over."""
        out = list(self.cpu)
        for node in self.placement.used_nodes():
            out.extend((self.mem[node], self.nic_out[node], self.nic_in[node]))
        out.extend(self.topology.all_resources())
        return tuple(out)

    def node_of(self, rank: int) -> int:
        return self.placement.node_of(rank)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise MachineError(f"rank {rank} outside [0, {self.nranks})")

    def transfer_plan(self, src: int, dst: int) -> TransferPlan:
        """Latency, resource path and rate cap for one src->dst message."""
        cached = self._plan_cache.get((src, dst))
        if cached is not None:
            return cached
        plan = self._build_plan(src, dst)
        self._plan_cache[(src, dst)] = plan
        return plan

    def _build_plan(self, src: int, dst: int) -> TransferPlan:
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise MachineError(f"self-message on rank {src} needs no transfer")
        spec = self.spec
        src_node = self.node_of(src)
        dst_node = self.node_of(dst)

        caps = [c for c in (self.copy_rate_cap(src), self.copy_rate_cap(dst)) if c]
        rate_cap = min(caps) if caps else None

        if src_node == dst_node:
            resources = (self.cpu[src], self.mem[src_node], self.cpu[dst])
            return TransferPlan(
                latency=spec.alpha_intra,
                resources=resources,
                rate_cap=rate_cap,
                intra_node=True,
            )

        route = self.topology.route(src_node, dst_node)
        resources = (
            self.cpu[src],
            self.mem[src_node],
            self.nic_out[src_node],
            *route.resources,
            self.nic_in[dst_node],
            self.mem[dst_node],
            self.cpu[dst],
        )
        latency = spec.alpha_inter + spec.hop_latency * route.hops
        return TransferPlan(
            latency=latency,
            resources=resources,
            rate_cap=rate_cap,
            intra_node=False,
        )

    def describe(self) -> str:
        """Multi-line summary used by example scripts."""
        used = self.placement.used_nodes()
        return (
            f"{self.spec.describe()}\n"
            f"ranks: {self.nranks} on {len(used)} node(s), "
            f"placement={self.placement.policy}"
        )

    def __repr__(self) -> str:
        return (
            f"<Machine {self.spec.name} nranks={self.nranks} "
            f"topology={self.topology.name}>"
        )
