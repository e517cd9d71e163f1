"""Replay differential gate: the vectorized engine must match the DES.

The replay engine (:mod:`repro.sim.replay`) promises *bitwise* equality
with the coroutine discrete-event runtime on every static schedule —
not "close", not "within tolerance": the same floats. That promise is
what lets ``REPRO_ENGINE=auto`` silently substitute replay for the DES
in sweeps, figures and the disk cache. This gate enforces it across the
full registry:

(a) **makespan** — ``ReplayResult.time`` equals ``JobResult.time``
    exactly (``==`` on floats, no tolerance);
(b) **per-rank finish times** — the full ``rank_finish_times`` vector
    matches element-for-element;
(c) **wire accounting** — every transport counter (message/byte totals,
    intra/inter split, per-rank sent/received message and byte maps)
    is identical;
(d) **flow bookkeeping** — both engines complete the same number of
    payload flows (zero-byte tokens included).

Each cell extracts the collective's schedule once
(:func:`~repro.collectives.schedule.cached_schedule` memoises it per
process, sharing work with the cost gate), compiles it, and runs both
engines on fresh machines so no fluid-solver state leaks between them.
The grid spans eager and rendezvous sizes so both transport protocols
are exercised.

The gate is also the oracle of :mod:`repro.collectives.emit`. For every
certificate the emitter covers, the emitted schedule must equal the
compiled extraction once sends are renamed by (src, dst, tag, index on
that channel), and its replay must match the DES bitwise; otherwise the
cell fails and its detail names the first rank and op that differ.

Schedules the replay compiler rejects (wildcard receives, never-matched
blocking receives) report ``unsupported`` — an accepted fallback, not a
failure, because the dispatch layer routes exactly those runs back to
the DES.

Surfaced as ``python -m repro replay --grid`` (``--strict``/``--json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..collectives.emit import EMITTED, emit_schedule
from ..collectives.schedule import cached_schedule
from ..errors import ReplayUnsupportedError, ReproError
from ..machine import Machine, MachineSpec, hornet
from ..mpi import Job
from ..mpi.counters import TrafficCounters
from ..sim.replay import (
    OP_COMPUTE,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    ReplayEngine,
    ReplaySchedule,
    compile_schedule,
)
from .verify import REGISTRY

__all__ = [
    "ReplayCheck",
    "ReplayReport",
    "run_replay_point",
    "replay_gate",
    "schedule_diff",
    "DEFAULT_RANKS",
    "DEFAULT_SIZES",
]

#: Grid defaults: non-trivial, non-power-of-two and power-of-two rank
#: counts; one size per transport protocol (512 B is eager and 256 KiB
#: rendezvous on every preset with a nonzero eager threshold).
DEFAULT_RANKS = (2, 5, 8, 13, 16)
DEFAULT_SIZES = (512, 262144)


@dataclass(frozen=True)
class ReplayCheck:
    """Verdict for one (collective, P, nbytes) grid cell."""

    collective: str
    nranks: int
    nbytes: int
    status: str  # "ok" | "unsupported" | "fail"
    detail: str = ""
    sends: int = 0

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> Dict[str, object]:
        return {
            "collective": self.collective,
            "nranks": self.nranks,
            "nbytes": self.nbytes,
            "status": self.status,
            "detail": self.detail,
            "sends": self.sends,
        }


@dataclass(frozen=True)
class ReplayReport:
    """Every grid cell's verdict plus the run parameters."""

    checks: Tuple[ReplayCheck, ...]
    machine: str

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[ReplayCheck]:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> Dict[str, object]:
        return {
            "machine": self.machine,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def describe(self) -> str:
        lines = [
            f"replay differential gate on {self.machine} — "
            f"{len(self.checks)} cell(s)"
        ]
        unsupported = sum(1 for c in self.checks if c.status == "unsupported")
        for c in self.failures:
            lines.append(
                f"  FAIL {c.collective} P={c.nranks} nbytes={c.nbytes}: {c.detail}"
            )
        lines.append(
            f"  {len(self.checks) - len(self.failures)}/{len(self.checks)} "
            f"bitwise-equal ({unsupported} unsupported fallback(s))"
        )
        lines.append(f"verdict: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _counters_dict(c: TrafficCounters) -> Dict[str, object]:
    """Every wire counter the gate compares, bitwise."""
    return {
        "messages": c.messages,
        "bytes": c.bytes,
        "intra_messages": c.intra_messages,
        "inter_messages": c.inter_messages,
        "intra_bytes": c.intra_bytes,
        "inter_bytes": c.inter_bytes,
        "sent_by_rank": dict(c.sent_by_rank),
        "received_by_rank": dict(c.received_by_rank),
        "bytes_sent_by_rank": dict(c.bytes_sent_by_rank),
        "bytes_received_by_rank": dict(c.bytes_received_by_rank),
    }


def _first_diff(des_map: Dict[str, object], rep_map: Dict[str, object]) -> str:
    """Name the first counter key whose values diverge (for the detail)."""
    for key in des_map:
        if des_map[key] != rep_map[key]:
            return f"{key}: des={des_map[key]!r} replay={rep_map[key]!r}"
    return "counters diverge"


_OP_NAMES = {
    OP_SEND: "send",
    OP_ISEND: "isend",
    OP_RECV: "recv",
    OP_IRECV: "irecv",
    OP_WAIT: "waitall",
    OP_COMPUTE: "compute",
}


def _canonical_ops(schedule: ReplaySchedule) -> List[List[Tuple[Any, ...]]]:
    """Per-rank op streams with every send renamed by its channel
    position ``(src, dst, tag, k)``: the k-th send its sender issues on
    that (src, dst, tag) channel. Two schedules of one program agree on
    these names whatever order their sends were numbered in."""
    src = schedule.send_src.tolist()
    dst = schedule.send_dst.tolist()
    tag = schedule.send_tag.tolist()
    nbytes = schedule.send_nbytes.tolist()
    issued: Dict[Tuple[Any, ...], int] = {}
    name: Dict[int, Tuple[Any, ...]] = {}
    for kinds, args in zip(schedule.op_kinds, schedule.op_args):
        for kind, arg in zip(kinds.tolist(), args.tolist()):
            if kind in (OP_SEND, OP_ISEND):
                channel = (src[arg], dst[arg], tag[arg])
                k = issued.get(channel, 0)
                issued[channel] = k + 1
                name[arg] = channel + (k,)
    streams: List[List[Tuple[Any, ...]]] = []
    for r, (kinds, args) in enumerate(zip(schedule.op_kinds, schedule.op_args)):
        ops: List[Tuple[Any, ...]] = []
        for kind, arg in zip(kinds.tolist(), args.tolist()):
            if kind == OP_WAIT:
                ops.append((kind, schedule.wait_members[r][arg]))
            elif kind == OP_COMPUTE:
                ops.append((kind, schedule.compute_seconds[r][arg]))
            elif arg < 0:
                ops.append((kind, None))
            else:
                ops.append((kind, name.get(arg), nbytes[arg]))
        streams.append(ops)
    return streams


def _describe_op(op: Optional[Tuple[Any, ...]]) -> str:
    if op is None:
        return "end of program"
    if len(op) == 3 and op[1] is not None:
        s, d, t, k = op[1]
        return f"{_OP_NAMES[op[0]]}({s}->{d} tag={t} #{k}, {op[2]} B)"
    return f"{_OP_NAMES[op[0]]}({op[1]})"


def schedule_diff(extracted: ReplaySchedule, emitted: ReplaySchedule) -> str:
    """Structural equality of two compiled schedules, up to send
    numbering: empty when equal, else the first rank and op that
    differ."""
    if extracted.ranks != emitted.ranks:
        return f"ranks: extracted {extracted.ranks} emitted {emitted.ranks}"
    pairs = zip(
        extracted.ranks, _canonical_ops(extracted), _canonical_ops(emitted)
    )
    for rank, want, got in pairs:
        for j in range(max(len(want), len(got))):
            a = want[j] if j < len(want) else None
            b = got[j] if j < len(got) else None
            if a != b:
                return (
                    f"rank {rank} op {j}: extracted {_describe_op(a)}, "
                    f"emitted {_describe_op(b)}"
                )
    if extracted.n_sends != emitted.n_sends:
        return f"sends: extracted {extracted.n_sends} emitted {emitted.n_sends}"
    return ""


def _result_diff(des: Any, rep: Any) -> str:
    """Empty when a replay matches the DES bitwise, else the first
    quantity that differs."""
    if rep.time != des.time:
        return f"makespan: des={des.time!r} replay={rep.time!r}"
    if list(rep.rank_finish_times) != list(des.rank_finish_times):
        return "per-rank finish times diverge"
    if _counters_dict(rep.counters) != _counters_dict(des.counters):
        return _first_diff(_counters_dict(des.counters), _counters_dict(rep.counters))
    if rep.flows_completed != des.flows_completed:
        return f"flows: des={des.flows_completed} replay={rep.flows_completed}"
    return ""


def run_replay_point(
    name: str,
    nranks: int,
    nbytes: int,
    spec: Optional[MachineSpec] = None,
    root: int = 0,
) -> ReplayCheck:
    """Judge one (collective, P, nbytes) cell: DES vs replay, bitwise.

    For a collective in :data:`~repro.collectives.emit.EMITTED` the
    cell also judges the emitter: its schedule must equal the compiled
    extraction up to send numbering and replay bitwise like the DES.
    """
    spec = spec if spec is not None else hornet()
    collective = REGISTRY[name]
    try:
        schedule = cached_schedule(
            ("registry", name, nranks, nbytes, root, None),
            nranks,
            collective.build(nranks, nbytes, root),
        )
        compiled = compile_schedule(schedule)
    except ReplayUnsupportedError as exc:
        return ReplayCheck(name, nranks, nbytes, "unsupported", detail=str(exc))
    except ReproError as exc:
        return ReplayCheck(
            name,
            nranks,
            nbytes,
            "fail",
            detail=f"extraction raised {type(exc).__name__}: {exc}",
        )
    des = Job(
        Machine(spec, nranks),
        collective.build(nranks, nbytes, root),
        working_set=nbytes,
    ).run()
    rep = ReplayEngine(Machine(spec, nranks), compiled, working_set=nbytes).run()
    detail = _result_diff(des, rep)
    if not detail and name in EMITTED:
        try:
            emitted = emit_schedule(name, nranks, nbytes, root)
        except ReproError as exc:
            detail = f"emitter raised {type(exc).__name__}: {exc}"
        else:
            detail = schedule_diff(compiled, emitted) or _result_diff(
                des,
                ReplayEngine(
                    Machine(spec, nranks), emitted, working_set=nbytes
                ).run(),
            )
        if detail:
            detail = f"emitted schedule: {detail}"
    return ReplayCheck(
        name,
        nranks,
        nbytes,
        "fail" if detail else "ok",
        detail=detail,
        sends=compiled.n_sends,
    )


def replay_gate(
    spec: Optional[MachineSpec] = None,
    collectives: Optional[Sequence[str]] = None,
    ranks: Sequence[int] = DEFAULT_RANKS,
    sizes: Sequence[int] = DEFAULT_SIZES,
    progress: Optional[Callable[[str], None]] = None,
) -> ReplayReport:
    """Run the full grid: registry collectives x ranks x sizes."""
    spec = spec if spec is not None else hornet()
    names = list(collectives) if collectives is not None else sorted(REGISTRY)
    checks: List[ReplayCheck] = []
    for name in names:
        registered = REGISTRY[name]
        for nranks in ranks:
            if not registered.supports(nranks):
                continue
            for nbytes in sizes:
                if progress is not None:
                    progress(f"replay {name} P={nranks} nbytes={nbytes}")
                checks.append(run_replay_point(name, nranks, nbytes, spec=spec))
    return ReplayReport(checks=tuple(checks), machine=spec.name)
