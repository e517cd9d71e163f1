"""Result records produced by the high-level API and the sweep driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..util import format_size, percent_change, speedup

__all__ = ["RunRecord", "ComparisonRecord", "MIB_S"]

# The paper reports bandwidth in base-2 megabytes per second.
MIB_S = 1024.0**2


@dataclass(frozen=True)
class RunRecord:
    """One (algorithm, nranks, nbytes) simulated broadcast."""

    algorithm: str
    nranks: int
    nbytes: int
    root: int
    time: float  # simulated seconds per broadcast
    messages: int
    bytes_on_wire: int
    intra_messages: int
    inter_messages: int
    machine: str = "unknown"
    # Which execution engine produced the record: "des" (coroutine
    # discrete-event runtime) or "replay" (vectorized schedule replay,
    # docs/performance.md). Both are bitwise-equivalent on static runs.
    engine: str = "des"
    # Fluid-solver telemetry (see docs/performance.md). Totals over the
    # run's iterations; all deterministic except solver_time_s, which is
    # host wall time and therefore excluded from record equality.
    solver_mode: str = ""
    solver_solves: int = 0
    solver_rounds: int = 0
    solver_components: int = 0
    solver_max_component: int = 0
    solver_flows_advanced: int = 0
    solver_time_s: float = field(default=0.0, compare=False)
    # Chaos / reliability telemetry (docs/robustness.md): whole-run
    # totals, all zero for fault-free runs on the plain transport.
    drops_injected: int = 0
    retrans_messages: int = 0
    retrans_bytes: int = 0
    ack_messages: int = 0
    ack_bytes: int = 0
    timeouts: int = 0

    @property
    def has_chaos(self) -> bool:
        """True when faults were injected or recovery traffic flowed."""
        return bool(
            self.drops_injected
            or self.retrans_messages
            or self.ack_messages
            or self.timeouts
        )

    @property
    def bandwidth(self) -> float:
        """Broadcast processing rate in bytes/s (the paper's metric)."""
        return self.nbytes / self.time if self.time > 0 else float("inf")

    @property
    def bandwidth_mib(self) -> float:
        """Bandwidth in MB/s, base-2, as plotted in Figures 6 and 8."""
        return self.bandwidth / MIB_S

    @property
    def throughput(self) -> float:
        """Broadcasts per second (the metric behind Figure 7)."""
        return 1.0 / self.time if self.time > 0 else float("inf")

    def describe(self) -> str:
        return (
            f"{self.algorithm}: P={self.nranks} size={format_size(self.nbytes)} "
            f"t={self.time * 1e6:.1f}us bw={self.bandwidth_mib:.1f}MB/s "
            f"msgs={self.messages}"
        )


@dataclass(frozen=True)
class ComparisonRecord:
    """Native vs tuned at one experiment point."""

    nranks: int
    nbytes: int
    native: RunRecord
    opt: RunRecord

    @property
    def speedup(self) -> float:
        """Throughput ratio opt/native (> 1 means the tuned design wins)."""
        return speedup(self.native.time, self.opt.time)

    @property
    def bandwidth_improvement_pct(self) -> Optional[float]:
        """Percent bandwidth improvement, the paper's headline number;
        None unless the native bandwidth is finite and positive (a 0 B
        broadcast has none, a one-rank one takes no time)."""
        if not 0 < self.native.bandwidth < float("inf"):
            return None
        return percent_change(self.native.bandwidth, self.opt.bandwidth)

    @property
    def transfers_saved(self) -> int:
        return self.native.messages - self.opt.messages

    @property
    def bytes_saved(self) -> int:
        return self.native.bytes_on_wire - self.opt.bytes_on_wire

    def describe(self) -> str:
        pct = self.bandwidth_improvement_pct
        return (
            f"P={self.nranks} size={format_size(self.nbytes)}: "
            f"native {self.native.bandwidth_mib:.1f}MB/s -> "
            f"opt {self.opt.bandwidth_mib:.1f}MB/s "
            f"({'n/a' if pct is None else f'+{pct:.1f}%'}, "
            f"{self.transfers_saved} transfers saved)"
        )
