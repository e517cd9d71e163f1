"""Chaos differential gate: collectives must survive injected faults.

PRs 3-4 proved the schedules correct and cost-consistent on a lossless
fabric. This gate closes the robustness loop: every registry collective
is run under a grid of seeded :class:`~repro.sim.faults.FaultPlan`\\ s on
the ARQ transport (:mod:`repro.mpi.reliable`) and judged against a
fault-free reference run of the same program over the same buffers:

(a) **payload integrity** — every rank's final buffer must be
    bit-identical to the reference run's;
(b) **termination** — the run completes within the retry budget or
    fails with a clean, typed
    :class:`~repro.errors.TransportExhaustedError` naming the dead link
    (acceptable only under a plan that can actually lose messages);
(c) **wire-accounting equivalence** — with zero retransmissions the
    transport byte counters must be bitwise-identical to the fault-free
    run, keeping the PR-4 cost-engine equivalence intact. The all-zero
    plan additionally runs on the *plain* transport and must reproduce
    the reference makespan and counters exactly.

A static selector check rides along: a plan with a crashed rank must
degrade the tuned ring to the binomial tree
(:func:`repro.collectives.selector.choose_bcast_name`).

Surfaced as ``python -m repro chaos`` (``--seed/--grid/--strict/--json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..collectives.selector import LONG_MSG_SIZE, choose_bcast_name
from ..errors import DeadlockError, ReproError, TransportExhaustedError
from ..machine.machine import Machine
from ..machine.presets import ideal
from ..machine.spec import MachineSpec
from ..mpi.buffers import RealBuffer
from ..mpi.counters import TrafficCounters
from ..mpi.runtime import Job, JobResult
from ..sim.faults import Blackout, FaultPlan, LatencySpike
from ..util.chunking import scatter_size
from .verify import REGISTRY

__all__ = [
    "ChaosCheck",
    "ChaosReport",
    "default_plans",
    "run_chaos_point",
    "chaos_gate",
]

#: Grid defaults: small payloads and modest P keep the full grid cheap
#: while still covering eager-path retransmission, reassembly and dedup.
DEFAULT_RANKS = (5, 8)
DEFAULT_NBYTES = 4096


def default_plans(seed: int = 0) -> List[FaultPlan]:
    """The gate's seeded plan grid, from benign to fatal."""
    return [
        FaultPlan.none(seed=seed, name="zero"),
        FaultPlan.uniform(seed=seed, drop_p=0.05, name="drop5"),
        FaultPlan.uniform(seed=seed + 1, drop_p=0.2, name="drop20"),
        FaultPlan.uniform(
            seed=seed + 2, dup_p=0.15, corrupt_p=0.1, name="dup_corrupt"
        ),
        FaultPlan.uniform(seed=seed + 3, extra_latency=2e-6, name="slow")
        .with_spike(LatencySpike(t0=0.0, t1=1e-3, extra_latency=5e-6))
        .with_blackout(Blackout(t0=20e-6, t1=60e-6, label="mid-run blackout")),
        FaultPlan.none(seed=seed + 4, name="crash").with_crash(1),
    ]


@dataclass(frozen=True)
class ChaosCheck:
    """Verdict for one (collective, P, plan) grid cell."""

    collective: str
    nranks: int
    plan: str
    status: str  # "ok" | "exhausted" | "fail"
    detail: str = ""
    drops: int = 0
    retrans: int = 0
    timeouts: int = 0
    acks: int = 0

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> Dict[str, object]:
        return {
            "collective": self.collective,
            "nranks": self.nranks,
            "plan": self.plan,
            "status": self.status,
            "detail": self.detail,
            "drops": self.drops,
            "retrans": self.retrans,
            "timeouts": self.timeouts,
            "acks": self.acks,
        }


@dataclass(frozen=True)
class ChaosReport:
    """Every grid cell's verdict plus the run parameters."""

    checks: Tuple[ChaosCheck, ...]
    seed: int
    nbytes: int
    machine: str

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[ChaosCheck]:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "nbytes": self.nbytes,
            "machine": self.machine,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def describe(self) -> str:
        lines = [
            f"chaos differential gate: seed={self.seed} nbytes={self.nbytes} "
            f"on {self.machine} — {len(self.checks)} check(s)"
        ]
        exhausted = sum(1 for c in self.checks if c.status == "exhausted")
        for c in self.failures:
            lines.append(
                f"  FAIL {c.collective} P={c.nranks} plan={c.plan}: {c.detail}"
            )
        lines.append(
            f"  {len(self.checks) - len(self.failures)}/{len(self.checks)} OK "
            f"({exhausted} clean typed exhaustion(s))"
        )
        lines.append(f"verdict: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _buffer_sizes(name: str, nranks: int, nbytes: int) -> List[int]:
    """Per-rank buffer sizes large enough for the collective's writes."""
    if name == "allgatherv_ring":
        from .verify import _allgatherv_counts

        total = sum(_allgatherv_counts(nranks, nbytes, 0))
        return [total] * nranks
    # Block collectives address P blocks of scatter_size bytes, which can
    # exceed nbytes when P does not divide it; cover both layouts.
    total = max(nbytes, scatter_size(nbytes, nranks) * nranks)
    return [total] * nranks


def _make_buffers(name: str, nranks: int, nbytes: int) -> List[RealBuffer]:
    """Deterministic, rank-distinguishable buffer contents (uint8)."""
    import numpy as np

    bufs = []
    for rank, size in enumerate(_buffer_sizes(name, nranks, nbytes)):
        pattern = (np.arange(size, dtype=np.uint32) * 31 + rank * 131 + 7) % 251
        bufs.append(RealBuffer.from_array(pattern.astype(np.uint8)))
    return bufs


def _wire_dict(counters: TrafficCounters) -> Dict[str, int]:
    """The transport byte counters check (c) compares bitwise."""
    return {
        "messages": counters.messages,
        "bytes": counters.bytes,
        "intra_messages": counters.intra_messages,
        "intra_bytes": counters.intra_bytes,
        "inter_messages": counters.inter_messages,
        "inter_bytes": counters.inter_bytes,
    }


def _run(
    spec: MachineSpec,
    name: str,
    nranks: int,
    nbytes: int,
    faults: Optional[FaultPlan] = None,
) -> Tuple[JobResult, List[RealBuffer]]:
    """One job of registry collective *name* over fresh real buffers."""
    machine = Machine(spec, nranks)
    bufs = _make_buffers(name, nranks, nbytes)
    factory = REGISTRY[name].build(nranks, nbytes, 0)
    job = Job(machine, factory, buffers=bufs, faults=faults)
    result = job.run()
    return result, bufs


def run_chaos_point(
    name: str,
    nranks: int,
    plan: FaultPlan,
    nbytes: int = DEFAULT_NBYTES,
    spec: Optional[MachineSpec] = None,
) -> ChaosCheck:
    """Judge one (collective, P, plan) cell against its clean reference."""
    spec = spec if spec is not None else ideal()
    ref, ref_bufs = _run(spec, name, nranks, nbytes)
    # The all-zero plan runs the plain transport; everything else runs
    # the ARQ layer.
    try:
        res, bufs = _run(spec, name, nranks, nbytes, faults=plan)
    except TransportExhaustedError as exc:
        if plan.lossy:
            return ChaosCheck(
                name, nranks, plan.name, "exhausted", detail=str(exc)
            )
        return ChaosCheck(
            name,
            nranks,
            plan.name,
            "fail",
            detail=f"typed exhaustion under a lossless plan: {exc}",
        )
    except DeadlockError as exc:
        return ChaosCheck(
            name, nranks, plan.name, "fail", detail=f"deadlock: {exc}"
        )
    except ReproError as exc:
        return ChaosCheck(
            name,
            nranks,
            plan.name,
            "fail",
            detail=f"untyped {type(exc).__name__}: {exc}",
        )
    c = res.counters
    stats = {
        "drops": c.drops_injected,
        "retrans": c.retrans_messages,
        "timeouts": c.timeouts,
        "acks": c.ack_messages,
    }
    # (a) payload integrity at every rank, bit for bit.
    import numpy as np

    for rank, (buf, ref_buf) in enumerate(zip(bufs, ref_bufs)):
        if not np.array_equal(buf.array, ref_buf.array):
            diffs = int(np.count_nonzero(buf.array != ref_buf.array))
            return ChaosCheck(
                name,
                nranks,
                plan.name,
                "fail",
                detail=f"rank {rank} payload differs in {diffs} byte(s)",
                **stats,
            )
    # (c) zero retransmissions => wire counters identical to fault-free.
    if c.retrans_messages == 0 and _wire_dict(c) != _wire_dict(ref.counters):
        return ChaosCheck(
            name,
            nranks,
            plan.name,
            "fail",
            detail=(
                f"zero retransmissions but wire counters diverge: "
                f"{_wire_dict(c)} vs {_wire_dict(ref.counters)}"
            ),
            **stats,
        )
    # The all-zero plan must be a perfect no-op: same makespan, same wire.
    if plan.is_zero and res.time != ref.time:
        return ChaosCheck(
            name,
            nranks,
            plan.name,
            "fail",
            detail=f"zero plan changed makespan: {res.time} vs {ref.time}",
            **stats,
        )
    return ChaosCheck(name, nranks, plan.name, "ok", **stats)


def _degradation_check(seed: int) -> ChaosCheck:
    """Static selector check: a crashed rank steers the tuned ring onto
    the binomial tree (and leaves the lossless selection untouched)."""
    crash = FaultPlan.none(seed=seed).with_crash(1)
    picked = choose_bcast_name(LONG_MSG_SIZE, 10, tuned=True, faults=crash)
    clean = choose_bcast_name(LONG_MSG_SIZE, 10, tuned=True)
    if picked != "binomial":
        return ChaosCheck(
            "selector_degradation",
            10,
            "crash",
            "fail",
            detail=f"crash plan selected {picked!r}, expected 'binomial'",
        )
    if clean != "scatter_ring_opt":
        return ChaosCheck(
            "selector_degradation",
            10,
            "crash",
            "fail",
            detail=f"lossless selection drifted to {clean!r}",
        )
    return ChaosCheck("selector_degradation", 10, "crash", "ok")


def chaos_gate(
    seed: int = 0,
    spec: Optional[MachineSpec] = None,
    collectives: Optional[Sequence[str]] = None,
    ranks: Sequence[int] = DEFAULT_RANKS,
    nbytes: int = DEFAULT_NBYTES,
    plans: Optional[Sequence[FaultPlan]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the full grid: registry collectives x ranks x fault plans."""
    spec = spec if spec is not None else ideal()
    names = list(collectives) if collectives is not None else sorted(REGISTRY)
    plans = list(plans) if plans is not None else default_plans(seed)
    checks: List[ChaosCheck] = [_degradation_check(seed)]
    for name in names:
        registered = REGISTRY[name]
        for nranks in ranks:
            if not registered.supports(nranks):
                continue
            for plan in plans:
                if progress is not None:
                    progress(f"chaos {name} P={nranks} plan={plan.name}")
                checks.append(
                    run_chaos_point(name, nranks, plan, nbytes=nbytes, spec=spec)
                )
    return ChaosReport(
        checks=tuple(checks), seed=seed, nbytes=nbytes, machine=spec.name
    )
