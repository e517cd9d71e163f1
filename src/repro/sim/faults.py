"""Fault injection: seeded, deterministic network/rank failure plans.

The simulator's guarantees so far (verifier, cost engine) assume a
perfectly lossless, fixed-latency fabric. Real Aries/InfiniBand networks
drop, duplicate, corrupt, delay and reorder messages, links black out,
and ranks slow down or die. A :class:`FaultPlan` describes such behaviour
as *data*: a set of declarative rules addressable by
``(src, dst, tag, op-index)`` plus time windows, evaluated at every
transport send/delivery through :meth:`FaultPlan.decide`.

Determinism is non-negotiable (the chaos differential gate compares runs
bit-for-bit): every probabilistic decision is a pure function of
``(seed, kind, rule-index, src, dst, tag, op_index)`` via SHA-256 — no
RNG state, no draw-order dependence. Two runs with the same plan make
identical decisions regardless of event interleaving, and a decision for
message *k* on one link never shifts when another link gains traffic.

The plan is consumed by:

* :class:`repro.mpi.reliable.ReliableTransport`, the transport of every
  run with a non-zero plan — drop/duplicate/corrupt/delay injection on
  every transmission, recovered by its ARQ protocol;
* :func:`repro.collectives.selector.choose_bcast_name` — graceful
  degradation away from the tuned ring when a neighbour is crashed;
* :mod:`repro.analysis.chaos` — the chaos differential gate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import ClassVar, Dict, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "LinkRule",
    "Blackout",
    "LatencySpike",
    "RankFault",
    "FaultDecision",
    "InjectedFault",
    "FaultPlan",
]


def _coin(seed: int, kind: str, rule: int, src: int, dst: int, tag: int, op: int) -> float:
    """Uniform in [0, 1), pure in its arguments (SHA-256 based)."""
    blob = f"{seed}:{kind}:{rule}:{src}:{dst}:{tag}:{op}".encode("ascii")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _match(want: Optional[int], got: int) -> bool:
    return want is None or want == got


@dataclass(frozen=True)
class LinkRule:
    """Per-link probabilistic faults, addressable by message coordinates.

    ``None`` fields are wildcards; ``op_lo``/``op_hi`` bound the per-link
    message index (``op_hi`` exclusive, ``None`` = unbounded), so a rule
    can target e.g. "the third message rank 2 sends to rank 3 with the
    ring tag".
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    tag: Optional[int] = None
    op_lo: int = 0
    op_hi: Optional[int] = None
    drop_p: float = 0.0
    dup_p: float = 0.0
    corrupt_p: float = 0.0
    extra_latency: float = 0.0
    label: str = ""

    def __post_init__(self):
        for name in ("drop_p", "dup_p", "corrupt_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        if self.extra_latency < 0:
            raise ConfigurationError("extra_latency must be >= 0")

    def matches(self, src: int, dst: int, tag: int, op_index: int) -> bool:
        return (
            _match(self.src, src)
            and _match(self.dst, dst)
            and _match(self.tag, tag)
            and op_index >= self.op_lo
            and (self.op_hi is None or op_index < self.op_hi)
        )

    def describe(self) -> str:
        where = (
            f"{'*' if self.src is None else self.src}->"
            f"{'*' if self.dst is None else self.dst}"
            f" tag={'*' if self.tag is None else self.tag}"
        )
        effects = []
        if self.drop_p:
            effects.append(f"drop {self.drop_p:g}")
        if self.dup_p:
            effects.append(f"dup {self.dup_p:g}")
        if self.corrupt_p:
            effects.append(f"corrupt {self.corrupt_p:g}")
        if self.extra_latency:
            effects.append(f"+{self.extra_latency * 1e6:g}us")
        name = f"{self.label}: " if self.label else ""
        return f"{name}{where} [{', '.join(effects) or 'no-op'}]"


@dataclass(frozen=True)
class Blackout:
    """A link (or the whole fabric) drops everything in ``[t0, t1)``."""

    t0: float
    t1: float
    src: Optional[int] = None
    dst: Optional[int] = None
    label: str = ""

    def __post_init__(self):
        if self.t1 <= self.t0 or self.t0 < 0:
            raise ConfigurationError(
                f"blackout window [{self.t0}, {self.t1}) is empty or negative"
            )

    def covers(self, src: int, dst: int, now: float) -> bool:
        return (
            _match(self.src, src)
            and _match(self.dst, dst)
            and self.t0 <= now < self.t1
        )


@dataclass(frozen=True)
class LatencySpike:
    """Transient extra latency on matching messages in ``[t0, t1)``."""

    t0: float
    t1: float
    extra_latency: float
    src: Optional[int] = None
    dst: Optional[int] = None
    label: str = ""

    def __post_init__(self):
        if self.t1 <= self.t0 or self.t0 < 0:
            raise ConfigurationError(
                f"spike window [{self.t0}, {self.t1}) is empty or negative"
            )
        if self.extra_latency < 0:
            raise ConfigurationError("extra_latency must be >= 0")

    def covers(self, src: int, dst: int, now: float) -> bool:
        return (
            _match(self.src, src)
            and _match(self.dst, dst)
            and self.t0 <= now < self.t1
        )


@dataclass(frozen=True)
class RankFault:
    """One rank slowed down or dead.

    ``slowdown`` multiplies the latency of every message the rank sends
    or receives (OS noise, thermal throttling). ``crashed`` kills the
    rank from ``crash_time`` onward: every message to or from it is
    dropped — its peers only find out through their retry budgets.
    """

    rank: int
    slowdown: float = 1.0
    crashed: bool = False
    crash_time: float = 0.0

    def __post_init__(self):
        if self.rank < 0:
            raise ConfigurationError(f"rank must be >= 0, got {self.rank}")
        if self.slowdown < 1.0:
            raise ConfigurationError(
                f"slowdown is a latency multiplier >= 1, got {self.slowdown}"
            )
        if self.crash_time < 0:
            raise ConfigurationError("crash_time must be >= 0")


@dataclass(frozen=True)
class FaultDecision:
    """What the plan does to one message transmission."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    extra_latency: float = 0.0
    latency_factor: float = 1.0
    cause: Optional[str] = None  # set when drop is True

    #: The no-fault fast path, shared to avoid per-message allocation.
    CLEAN: ClassVar["FaultDecision"]


FaultDecision.CLEAN = FaultDecision()


@dataclass(frozen=True)
class InjectedFault:
    """Audit-log record of one fault the transport actually injected."""

    time: float
    kind: str  # "drop" | "corrupt" | "duplicate"
    src: int
    dst: int
    tag: int
    op_index: int
    cause: str

    def describe(self) -> str:
        return (
            f"t={self.time * 1e6:.2f}us {self.kind} {self.src}->{self.dst} "
            f"tag={self.tag} op#{self.op_index} ({self.cause})"
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of everything that goes wrong.

    Plans are immutable values: hashable predicates plus a seed. They
    serialise (:meth:`to_dict` / :meth:`from_dict`), digest stably for
    cache keys (:meth:`digest`), and compose via the ``with_*`` helpers.
    """

    seed: int = 0
    link_rules: Tuple[LinkRule, ...] = ()
    blackouts: Tuple[Blackout, ...] = ()
    spikes: Tuple[LatencySpike, ...] = ()
    rank_faults: Tuple[RankFault, ...] = ()
    name: str = "plan"

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")

    # -- constructors ---------------------------------------------------
    @classmethod
    def none(cls, seed: int = 0, name: str = "zero") -> "FaultPlan":
        """The all-zero plan: injects nothing, digests stably."""
        return cls(seed=seed, name=name)

    @classmethod
    def uniform(
        cls,
        seed: int = 0,
        drop_p: float = 0.0,
        dup_p: float = 0.0,
        corrupt_p: float = 0.0,
        extra_latency: float = 0.0,
        name: str = "uniform",
    ) -> "FaultPlan":
        """One wildcard rule over every link (the usual chaos knob)."""
        if drop_p == dup_p == corrupt_p == extra_latency == 0.0:
            return cls(seed=seed, name=name)
        rule = LinkRule(
            drop_p=drop_p,
            dup_p=dup_p,
            corrupt_p=corrupt_p,
            extra_latency=extra_latency,
            label=name,
        )
        return cls(seed=seed, link_rules=(rule,), name=name)

    def with_rule(self, rule: LinkRule) -> "FaultPlan":
        return replace(self, link_rules=self.link_rules + (rule,))

    def with_blackout(self, blackout: Blackout) -> "FaultPlan":
        return replace(self, blackouts=self.blackouts + (blackout,))

    def with_spike(self, spike: LatencySpike) -> "FaultPlan":
        return replace(self, spikes=self.spikes + (spike,))

    def with_crash(self, rank: int, at: float = 0.0) -> "FaultPlan":
        fault = RankFault(rank=rank, crashed=True, crash_time=at)
        return replace(self, rank_faults=self.rank_faults + (fault,))

    def with_slowdown(self, rank: int, factor: float) -> "FaultPlan":
        fault = RankFault(rank=rank, slowdown=factor)
        return replace(self, rank_faults=self.rank_faults + (fault,))

    # -- queries --------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        """True when the plan can never perturb a run."""
        return not (self.link_rules or self.blackouts or self.spikes or self.rank_faults)

    @property
    def lossy(self) -> bool:
        """True when the plan can make a message disappear (so a
        retry-budget exhaustion is a legitimate outcome)."""
        return (
            any(r.drop_p > 0 or r.corrupt_p > 0 for r in self.link_rules)
            or bool(self.blackouts)
            or any(f.crashed for f in self.rank_faults)
        )

    def crashed_ranks(self, before: Optional[float] = None) -> Tuple[int, ...]:
        """Ranks marked crashed (optionally only those dead by *before*)."""
        return tuple(
            sorted(
                f.rank
                for f in self.rank_faults
                if f.crashed and (before is None or f.crash_time <= before)
            )
        )

    def decide(
        self, src: int, dst: int, tag: int, op_index: int, now: float = 0.0
    ) -> FaultDecision:
        """Evaluate the plan for one message transmission.

        ``op_index`` is the per-``(src, dst)`` transmission counter kept
        by the caller (each retransmission gets a fresh index, so a
        retry is a fresh coin, not a deterministically repeated loss).
        """
        if self.is_zero:
            return FaultDecision.CLEAN
        for f in self.rank_faults:
            if f.crashed and now >= f.crash_time and f.rank in (src, dst):
                return FaultDecision(drop=True, cause=f"crash(rank {f.rank})")
        for b in self.blackouts:
            if b.covers(src, dst, now):
                label = b.label or "blackout"
                return FaultDecision(
                    drop=True,
                    cause=f"{label}[{b.t0 * 1e6:g},{b.t1 * 1e6:g})us",
                )
        drop = duplicate = corrupt = False
        cause = None
        extra = 0.0
        factor = 1.0
        for i, rule in enumerate(self.link_rules):
            if not rule.matches(src, dst, tag, op_index):
                continue
            extra += rule.extra_latency
            if rule.drop_p > 0 and not drop:
                if _coin(self.seed, "drop", i, src, dst, tag, op_index) < rule.drop_p:
                    drop = True
                    cause = rule.label or f"drop_p={rule.drop_p:g} (rule {i})"
            if rule.corrupt_p > 0 and not corrupt:
                corrupt = (
                    _coin(self.seed, "corrupt", i, src, dst, tag, op_index)
                    < rule.corrupt_p
                )
            if rule.dup_p > 0 and not duplicate:
                duplicate = (
                    _coin(self.seed, "dup", i, src, dst, tag, op_index) < rule.dup_p
                )
        for s in self.spikes:
            if s.covers(src, dst, now):
                extra += s.extra_latency
        for f in self.rank_faults:
            if f.slowdown > 1.0 and f.rank in (src, dst):
                factor *= f.slowdown
        if drop:
            return FaultDecision(drop=True, cause=cause)
        if not (duplicate or corrupt or extra or factor != 1.0):
            return FaultDecision.CLEAN
        return FaultDecision(
            duplicate=duplicate,
            corrupt=corrupt,
            extra_latency=extra,
            latency_factor=factor,
        )

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "name": self.name,
            "link_rules": [asdict(r) for r in self.link_rules],
            "blackouts": [asdict(b) for b in self.blackouts],
            "spikes": [asdict(s) for s in self.spikes],
            "rank_faults": [asdict(f) for f in self.rank_faults],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        return cls(
            seed=data.get("seed", 0),
            name=data.get("name", "plan"),
            link_rules=tuple(LinkRule(**r) for r in data.get("link_rules", ())),
            blackouts=tuple(Blackout(**b) for b in data.get("blackouts", ())),
            spikes=tuple(LatencySpike(**s) for s in data.get("spikes", ())),
            rank_faults=tuple(RankFault(**f) for f in data.get("rank_faults", ())),
        )

    def digest(self) -> str:
        """Stable content hash — folded into disk-cache keys so chaos
        runs never collide with clean-run entries."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        lines: List[str] = [f"fault plan {self.name!r} (seed {self.seed})"]
        for rule in self.link_rules:
            lines.append(f"  rule: {rule.describe()}")
        for b in self.blackouts:
            lines.append(
                f"  blackout: [{b.t0 * 1e6:g}, {b.t1 * 1e6:g})us "
                f"{'*' if b.src is None else b.src}->"
                f"{'*' if b.dst is None else b.dst}"
            )
        for s in self.spikes:
            lines.append(
                f"  spike: +{s.extra_latency * 1e6:g}us in "
                f"[{s.t0 * 1e6:g}, {s.t1 * 1e6:g})us"
            )
        for f in self.rank_faults:
            state = (
                f"crashed at t={f.crash_time * 1e6:g}us"
                if f.crashed
                else f"slowdown x{f.slowdown:g}"
            )
            lines.append(f"  rank {f.rank}: {state}")
        if self.is_zero:
            lines.append("  (no faults)")
        return "\n".join(lines)
