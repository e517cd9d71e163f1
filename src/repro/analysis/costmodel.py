"""Static α-β/LogGP cost engine over extracted schedules.

An abstract interpreter over :class:`~repro.collectives.schedule.ScheduleResult`
programs: instead of simulating a schedule it *reads* one, and derives

1. **Dependency rounds** — happens-before over per-rank program order
   plus message edges, using the executor's ``observed``/``dep_counts``
   metadata: send *o* depends on exactly the messages its sender's
   program had consumed before issuing it (an unwaited irecv never gates
   a send). ``round(o) = 1 + max(round over dependencies)``.
2. **Per-link byte loads** — each send is mapped onto the machine's
   resource path via :meth:`Machine.transfer_plan` (per-rank copy
   engines, node memory, NIC pairs, fabric links from the topology), and
   byte/message loads accumulate per link and per round.
3. **Time lower bounds** from :class:`~repro.machine.spec.MachineSpec`:

   * ``t_chain`` — longest-path DP over the dependency DAG where each
     message costs its protocol's minimum end-to-end latency: eager pays
     ``send_overhead + max(latency, n/beta_rate) + recv_overhead``
     (payload flow and envelope travel concurrently), rendezvous pays
     ``send_overhead + latency*(1 + rendezvous_rtt) + n/beta_rate +
     recv_overhead`` (envelope, clear-to-send, then the flow);
     ``beta_rate`` is the min capacity on the path, capped by the
     working-set copy-rate cap — the best rate the fluid model can ever
     grant the flow.
   * ``t_link`` — max over links of total consumed bytes / capacity:
     every flow crossing a link must drain through it.
   * ``t_bound = max(t_chain, t_link)``.

   Both are sound lower bounds of the simulated makespan: the DP only
   counts costs the transport provably pays before the consuming rank can
   finish, and restricts itself to messages some program actually
   consumed. Per-round link loads are *diagnostics* — summing per-round
   maxima would not be a valid bound (later rounds need not wait for the
   busiest link of an earlier round to drain).

The :func:`differential_gate` cross-checks the static layer against the
dynamic one for every collective in the verify registry: byte counts
must equal the raw sends of the extracted schedule exactly (and the
DES :class:`TrafficCounters` at the simulated points), time bounds must
lower-bound — and track within a band — simulated makespans on the
ideal machine, and the native-vs-tuned ranking must agree with the
simulator. The S−P savings themselves are proved for all P by the
broadcast certificates of :mod:`repro.analysis.certify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..collectives.schedule import ScheduleResult, extract_schedule
from ..errors import ConfigurationError, ReproError
from ..machine.machine import Machine, TransferPlan
from ..machine.presets import ideal
from ..machine.spec import MachineSpec
from ..util.sizes import KIB, MIB
from .verify import REGISTRY, CollectiveSpec

__all__ = [
    "LinkLoad",
    "CostReport",
    "analyze_schedule",
    "analyze_collective",
    "GateCheck",
    "GateReport",
    "differential_gate",
]


# ---------------------------------------------------------------------------
# Report records
# ---------------------------------------------------------------------------


@dataclass
class LinkLoad:
    """Accumulated traffic over one machine resource."""

    name: str
    kind: str  # "cpu" | "mem" | "nic" | "link"
    capacity: float  # bytes/s
    nbytes: int = 0
    messages: int = 0
    by_round: Dict[int, int] = field(default_factory=dict)

    @property
    def drain_time(self) -> float:
        """Seconds just to push this link's bytes through its capacity."""
        return self.nbytes / self.capacity

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "capacity": self.capacity,
            "nbytes": self.nbytes,
            "messages": self.messages,
            "by_round": {str(r): b for r, b in sorted(self.by_round.items())},
        }


@dataclass
class CostReport:
    """Everything the static cost engine derived from one schedule."""

    collective: str
    nranks: int
    nbytes: int
    root: int
    machine: str
    placement: str
    transfers: int = 0
    total_bytes: int = 0
    intra_messages: int = 0
    inter_messages: int = 0
    consumed_transfers: int = 0
    rounds: int = 0
    round_messages: Dict[int, int] = field(default_factory=dict)
    sent_messages_by_rank: Dict[int, int] = field(default_factory=dict)
    received_messages_by_rank: Dict[int, int] = field(default_factory=dict)
    sent_bytes_by_rank: Dict[int, int] = field(default_factory=dict)
    received_bytes_by_rank: Dict[int, int] = field(default_factory=dict)
    link_loads: List[LinkLoad] = field(default_factory=list)
    t_chain: float = 0.0
    t_link: float = 0.0

    @property
    def t_bound(self) -> float:
        """The α-β/LogGP makespan lower bound."""
        return max(self.t_chain, self.t_link)

    @property
    def busiest_link(self) -> Optional[LinkLoad]:
        loaded = [l for l in self.link_loads if l.nbytes > 0]
        if not loaded:
            return None
        return max(loaded, key=lambda l: (l.drain_time, l.name))

    def describe(self) -> str:
        lines = [
            f"{self.collective}: P={self.nranks}, nbytes={self.nbytes}, "
            f"root={self.root} on {self.machine} ({self.placement})",
            f"  transfers: {self.transfers} ({self.intra_messages} intra, "
            f"{self.inter_messages} inter), {self.total_bytes} wire byte(s)",
            f"  dependency rounds: {self.rounds}",
            f"  t_chain={self.t_chain * 1e6:.2f}us  "
            f"t_link={self.t_link * 1e6:.2f}us  "
            f"t_bound={self.t_bound * 1e6:.2f}us",
        ]
        busiest = self.busiest_link
        if busiest is not None:
            lines.append(
                f"  busiest link: {busiest.name} ({busiest.messages} msg(s), "
                f"{busiest.nbytes} B, {busiest.drain_time * 1e6:.2f}us drain)"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "collective": self.collective,
            "nranks": self.nranks,
            "nbytes": self.nbytes,
            "root": self.root,
            "machine": self.machine,
            "placement": self.placement,
            "transfers": self.transfers,
            "total_bytes": self.total_bytes,
            "intra_messages": self.intra_messages,
            "inter_messages": self.inter_messages,
            "rounds": self.rounds,
            "round_messages": {
                str(r): n for r, n in sorted(self.round_messages.items())
            },
            "sent_bytes_by_rank": {
                str(r): b for r, b in sorted(self.sent_bytes_by_rank.items())
            },
            "received_bytes_by_rank": {
                str(r): b for r, b in sorted(self.received_bytes_by_rank.items())
            },
            "t_chain": self.t_chain,
            "t_link": self.t_link,
            "t_bound": self.t_bound,
            "link_loads": [
                l.to_dict() for l in self.link_loads if l.messages > 0
            ],
        }


# ---------------------------------------------------------------------------
# The abstract interpreter
# ---------------------------------------------------------------------------


def _duration_lb(spec: MachineSpec, plan: TransferPlan, nbytes: int) -> float:
    """Minimum end-to-end seconds the transport pays for one message.

    Mirrors :mod:`repro.mpi.transport` exactly: under eager the payload
    flow and the envelope travel concurrently from launch; under
    rendezvous the envelope, the clear-to-send and only then the flow
    are serialised. The beta rate is the best the fluid model can ever
    grant the flow (min path capacity, working-set cap applied).
    """
    rate = min(res.capacity for res in plan.resources)
    if plan.rate_cap is not None:
        rate = min(rate, plan.rate_cap)
    beta = nbytes / rate if nbytes else 0.0
    if nbytes <= spec.eager_threshold:
        return spec.send_overhead + max(plan.latency, beta) + spec.recv_overhead
    return (
        spec.send_overhead
        + plan.latency * (1.0 + spec.rendezvous_rtt)
        + beta
        + spec.recv_overhead
    )


def analyze_schedule(
    schedule: ScheduleResult,
    machine: Machine,
    collective: str = "<program>",
    nbytes: int = 0,
    root: int = 0,
) -> CostReport:
    """Run the abstract interpreter over one extracted schedule.

    The caller owns the machine's working-set state
    (:meth:`Machine.set_working_set`) so the copy-rate caps match the
    simulation being bounded.
    """
    if schedule.nranks > machine.nranks:
        raise ConfigurationError(
            f"schedule spans {schedule.nranks} ranks, machine hosts "
            f"{machine.nranks}"
        )
    report = CostReport(
        collective=collective,
        nranks=schedule.nranks,
        nbytes=nbytes,
        root=root,
        machine=machine.spec.name,
        placement=machine.placement.policy,
        transfers=schedule.transfers,
        total_bytes=schedule.total_bytes,
    )
    loads = {
        res.name: LinkLoad(name=res.name, kind=res.kind, capacity=res.capacity)
        for res in machine.all_resources()
    }
    consumed = {o for orders in schedule.observed.values() for o in orders}
    report.consumed_transfers = len(consumed)
    consumed_link_bytes: Dict[str, int] = {}

    # One forward pass: per-rank prefix maxima over the observed lists
    # give each send's dependency round and earliest-finish DP in O(n)
    # (a dependency's order always precedes the dependent send's).
    obs_ptr: Dict[int, int] = {}
    max_depth: Dict[int, int] = {}
    max_finish: Dict[int, float] = {}
    depth: List[int] = [0] * schedule.transfers
    finish: List[float] = [0.0] * schedule.transfers
    t_chain = 0.0
    for send in schedule.sends:
        o = send.order
        src, dst = send.src, send.dst
        report.sent_messages_by_rank[src] = (
            report.sent_messages_by_rank.get(src, 0) + 1
        )
        report.received_messages_by_rank[dst] = (
            report.received_messages_by_rank.get(dst, 0) + 1
        )
        report.sent_bytes_by_rank[src] = (
            report.sent_bytes_by_rank.get(src, 0) + send.nbytes
        )
        report.received_bytes_by_rank[dst] = (
            report.received_bytes_by_rank.get(dst, 0) + send.nbytes
        )

        plan = machine.transfer_plan(src, dst)
        if plan.intra_node:
            report.intra_messages += 1
        else:
            report.inter_messages += 1

        k = schedule.dep_counts.get(o, 0)
        observed = schedule.observed.get(src, [])
        i = obs_ptr.get(src, 0)
        while i < k:
            m = observed[i]
            if depth[m] > max_depth.get(src, 0):
                max_depth[src] = depth[m]
            if finish[m] > max_finish.get(src, 0.0):
                max_finish[src] = finish[m]
            i += 1
        obs_ptr[src] = i
        depth[o] = max_depth.get(src, 0) + 1
        finish[o] = max_finish.get(src, 0.0) + _duration_lb(
            machine.spec, plan, send.nbytes
        )
        if o in consumed and finish[o] > t_chain:
            t_chain = finish[o]

        report.round_messages[depth[o]] = (
            report.round_messages.get(depth[o], 0) + 1
        )
        for res in plan.resources:
            load = loads[res.name]
            load.nbytes += send.nbytes
            load.messages += 1
            load.by_round[depth[o]] = load.by_round.get(depth[o], 0) + send.nbytes
            if o in consumed:
                consumed_link_bytes[res.name] = (
                    consumed_link_bytes.get(res.name, 0) + send.nbytes
                )

    report.rounds = max(depth, default=0)
    report.t_chain = t_chain
    report.t_link = max(
        (b / loads[name].capacity for name, b in consumed_link_bytes.items()),
        default=0.0,
    )
    report.link_loads = sorted(
        loads.values(), key=lambda l: (-l.nbytes, l.name)
    )
    return report


def analyze_collective(
    name: str,
    nranks: int,
    nbytes: int = 65536,
    root: int = 0,
    spec: Optional[MachineSpec] = None,
    placement: str = "blocked",
) -> CostReport:
    """Extract a registry collective's schedule and cost it statically."""
    try:
        collective = REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown collective {name!r}; known: {sorted(REGISTRY)}"
        ) from None
    if not collective.supports(nranks):
        raise ConfigurationError(
            f"collective {name!r} does not support P={nranks}"
            + (" (power-of-two only)" if collective.pof2_only else "")
        )
    machine_spec = spec if spec is not None else ideal()
    schedule, machine = _extract(
        collective, nranks, nbytes, root, machine_spec, placement
    )
    return analyze_schedule(
        schedule, machine, collective=name, nbytes=nbytes, root=root
    )


def _extract(
    collective: CollectiveSpec,
    nranks: int,
    nbytes: int,
    root: int,
    spec: MachineSpec,
    placement: str,
) -> Tuple[ScheduleResult, Machine]:
    """One registry point's schedule, and the machine it is costed on
    (its working set already *nbytes*)."""
    machine = Machine(spec, nranks, placement)
    machine.set_working_set(nbytes)
    schedule = extract_schedule(
        nranks, collective.build(nranks, nbytes, root), placement=machine.placement
    )
    return schedule, machine


# ---------------------------------------------------------------------------
# The differential gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateCheck:
    """One static-vs-dynamic cross-check."""

    kind: str  # "bytes" | "time-bound" | "ranking"
    subject: str
    ok: bool
    detail: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.subject}: {'OK' if self.ok else 'FAIL'} — {self.detail}"


@dataclass
class GateReport:
    """Outcome of the full differential gate."""

    checks: List[GateCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[GateCheck]:
        return [c for c in self.checks if not c.ok]

    def counts(self) -> Dict[str, Tuple[int, int]]:
        """``kind -> (passed, total)``."""
        out: Dict[str, Tuple[int, int]] = {}
        for c in self.checks:
            passed, total = out.get(c.kind, (0, 0))
            out[c.kind] = (passed + (1 if c.ok else 0), total + 1)
        return out

    def describe(self) -> str:
        lines = []
        for kind, (passed, total) in sorted(self.counts().items()):
            lines.append(f"{kind}: {passed}/{total} check(s) passed")
        for c in self.failures:
            lines.append(c.describe())
        lines.append(f"verdict: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "counts": {k: {"passed": p, "total": t} for k, (p, t) in self.counts().items()},
            "checks": [
                {
                    "kind": c.kind,
                    "subject": c.subject,
                    "ok": c.ok,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _static_totals(schedule: ScheduleResult) -> Tuple[int, int, Dict[int, int], Dict[int, int]]:
    sent: Dict[int, int] = {}
    received: Dict[int, int] = {}
    for s in schedule.sends:
        sent[s.src] = sent.get(s.src, 0) + s.nbytes
        received[s.dst] = received.get(s.dst, 0) + s.nbytes
    return schedule.transfers, schedule.total_bytes, sent, received


def differential_gate(
    spec: Optional[MachineSpec] = None,
    placement: str = "blocked",
    static_ranks: Sequence[int] = (2, 3, 4, 5, 8, 10, 16),
    sim_ranks: Sequence[int] = (8, 10),
    sizes: Sequence[int] = (64 * KIB, 1 * MIB),
    band: float = 0.5,
    progress: Optional[Callable[[str], None]] = None,
) -> GateReport:
    """Cross-check the static cost layer against the dynamic one.

    * **bytes** — for every registry collective at every static grid
      point, the cost report's totals and per-rank byte/message tallies
      must equal the sends of the :class:`ScheduleExecutor` extraction
      it was computed from, summed directly (each point is extracted
      once); at the simulated points they must also equal the DES
      :class:`TrafficCounters`.
    * **time-bound** — at the simulated points, ``t_bound`` must
      lower-bound the simulated makespan and stay within the tolerance
      band (``t_bound >= band * makespan``).
    * **ranking** — static ``t_bound`` and simulated makespan must agree
      that the tuned broadcast is never slower than the native one.

    ``spec`` defaults to the ideal machine — the only preset whose
    makespans the α-β bound is guaranteed to track tightly.
    """
    machine_spec = spec if spec is not None else ideal()
    if not 0 < band <= 1:
        raise ConfigurationError(f"band must be in (0, 1], got {band}")
    report = GateReport()
    say = progress if progress is not None else (lambda _msg: None)

    # -- pass 1: static byte accounting over the full grid -------------------
    say("pass 1/3: static byte accounting vs schedule executor")
    for nranks in static_ranks:
        for name in sorted(REGISTRY):
            collective = REGISTRY[name]
            if not collective.supports(nranks):
                continue
            nbytes = sizes[-1]
            subject = f"{name} P={nranks} nbytes={nbytes}"
            try:
                schedule, machine = _extract(
                    collective, nranks, nbytes, 0, machine_spec, placement
                )
                cost = analyze_schedule(
                    schedule, machine, collective=name, nbytes=nbytes
                )
            except ReproError as exc:
                report.checks.append(
                    GateCheck("bytes", subject, False, f"{type(exc).__name__}: {exc}")
                )
                continue
            transfers, total, sent, received = _static_totals(schedule)
            ok = (
                cost.transfers == transfers
                and cost.total_bytes == total
                and cost.sent_bytes_by_rank == sent
                and cost.received_bytes_by_rank == received
            )
            report.checks.append(
                GateCheck(
                    "bytes",
                    subject,
                    ok,
                    f"static {cost.transfers} msg / {cost.total_bytes} B vs "
                    f"executor {transfers} msg / {total} B",
                )
            )

    # -- pass 2 + 3: simulated points ----------------------------------------
    from ..mpi.runtime import Job

    say("pass 2/3: time bounds vs simulated makespans")
    makespans: Dict[Tuple[str, int, int], float] = {}
    bounds: Dict[Tuple[str, int, int], float] = {}
    for nranks in sim_ranks:
        for nbytes in sizes:
            for name in sorted(REGISTRY):
                collective = REGISTRY[name]
                if not collective.supports(nranks):
                    continue
                subject = f"{name} P={nranks} nbytes={nbytes}"
                try:
                    cost = analyze_collective(
                        name, nranks, nbytes, spec=machine_spec, placement=placement
                    )
                    machine = Machine(machine_spec, nranks, placement)
                    job = Job(
                        machine,
                        collective.build(nranks, nbytes, 0),
                        working_set=nbytes,
                    )
                    result = job.run()
                except ReproError as exc:
                    report.checks.append(
                        GateCheck(
                            "time-bound",
                            subject,
                            False,
                            f"{type(exc).__name__}: {exc}",
                        )
                    )
                    continue
                makespans[(name, nranks, nbytes)] = result.time
                bounds[(name, nranks, nbytes)] = cost.t_bound

                counters = result.counters
                bytes_ok = (
                    cost.transfers == counters.messages
                    and cost.total_bytes == counters.bytes
                    and cost.intra_messages == counters.intra_messages
                    and cost.inter_messages == counters.inter_messages
                    and cost.sent_bytes_by_rank == counters.bytes_sent_by_rank
                    and cost.received_bytes_by_rank
                    == counters.bytes_received_by_rank
                )
                report.checks.append(
                    GateCheck(
                        "bytes",
                        f"{subject} (sim counters)",
                        bytes_ok,
                        f"static {cost.transfers} msg / {cost.total_bytes} B vs "
                        f"DES {counters.messages} msg / {counters.bytes} B",
                    )
                )

                makespan = result.time
                lower = cost.t_bound <= makespan * (1 + 1e-9)
                tracks = makespan == 0.0 or cost.t_bound >= band * makespan
                report.checks.append(
                    GateCheck(
                        "time-bound",
                        subject,
                        lower and tracks,
                        f"t_bound={cost.t_bound * 1e6:.2f}us vs "
                        f"makespan={makespan * 1e6:.2f}us "
                        f"(ratio {cost.t_bound / makespan:.3f}, band {band})"
                        if makespan > 0
                        else f"t_bound={cost.t_bound * 1e6:.2f}us, makespan=0",
                    )
                )

    say("pass 3/3: native-vs-tuned ranking")
    for nranks in sim_ranks:
        for nbytes in sizes:
            key_n = ("bcast_native", nranks, nbytes)
            key_o = ("bcast_opt", nranks, nbytes)
            if key_n not in makespans or key_o not in makespans:
                continue
            subject = f"bcast_opt vs bcast_native P={nranks} nbytes={nbytes}"
            static_ok = bounds[key_o] <= bounds[key_n] * (1 + 1e-9)
            sim_ok = makespans[key_o] <= makespans[key_n] * (1 + 1e-9)
            report.checks.append(
                GateCheck(
                    "ranking",
                    subject,
                    static_ok and sim_ok,
                    f"static {bounds[key_o] * 1e6:.2f}us <= "
                    f"{bounds[key_n] * 1e6:.2f}us: {static_ok}; "
                    f"sim {makespans[key_o] * 1e6:.2f}us <= "
                    f"{makespans[key_n] * 1e6:.2f}us: {sim_ok}",
                )
            )

    return report
