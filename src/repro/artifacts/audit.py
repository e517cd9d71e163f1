"""``repro audit``: re-execute a run artifact and diff it bitwise.

An audit answers, with exit-code certainty, "does this stored result
still reproduce?":

1. **integrity** — the artifact's internal digests are recomputed from
   its payload; a tampered or torn file fails here (exit 1) without
   simulating anything;
2. **re-execution** — the artifact's ``config`` recipe is run again
   through :func:`run_gate` (for a verify/cost/chaos/replay/mc/prove
   gate, the function the CLI ran it through; for a sweep, the serial
   executor), without the result cache, so the comparison is against
   fresh simulation;
3. **bitwise diff** — the fresh payload must equal the stored
   ``records`` exactly (after scrubbing the wall-clock telemetry fields
   every comparison ignores, see :data:`~repro.artifacts.store.VOLATILE_KEYS`);
   the first differing paths are named in the report.

A mismatch with environment drift (different code-version salt or
engine mode) is still a mismatch — but the report says which
fingerprint fields moved, so "the simulator changed" is distinguishable
from "the result rotted".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional

from ..errors import ArtifactError
from ..machine import MachineSpec
from ..sim.faults import FaultPlan
from .store import ArtifactStore, RunArtifact, artifact_digest, scrub

if TYPE_CHECKING:  # the sweep stack loads with a sweep recipe, off the gates' path
    from ..core.sweep import SweepPoint

__all__ = [
    "AuditResult",
    "audit_artifact",
    "decode_faults",
    "decode_points",
    "decode_spec",
    "diff_payload",
    "encode_faults",
    "encode_points",
    "encode_spec",
    "payload",
    "reexecute",
    "run_gate",
]

_DIFF_LIMIT = 10


def diff_payload(expected: Any, actual: Any) -> List[str]:
    """Paths where two scrubbed payloads differ (bounded list)."""
    out: List[str] = []
    _diff(scrub(expected), scrub(actual), "$", out)
    return out


def _diff(exp: Any, act: Any, path: str, out: List[str]) -> None:
    if len(out) >= _DIFF_LIMIT:
        return
    if isinstance(exp, dict) and isinstance(act, dict):
        for key in sorted(set(exp) | set(act)):
            if key not in exp:
                out.append(f"{path}.{key}: unexpected in re-execution")
            elif key not in act:
                out.append(f"{path}.{key}: missing from re-execution")
            else:
                _diff(exp[key], act[key], f"{path}.{key}", out)
            if len(out) >= _DIFF_LIMIT:
                return
        return
    if isinstance(exp, list) and isinstance(act, list):
        if len(exp) != len(act):
            out.append(
                f"{path}: length {len(exp)} stored vs {len(act)} re-executed"
            )
            return
        for i, (e, a) in enumerate(zip(exp, act)):
            _diff(e, a, f"{path}[{i}]", out)
            if len(out) >= _DIFF_LIMIT:
                return
        return
    if exp != act:
        out.append(f"{path}: stored {exp!r} vs re-executed {act!r}")


# -- recipe codecs: the JSON form of a recipe's non-JSON values -------
def encode_spec(spec: MachineSpec) -> dict:
    return dataclasses.asdict(spec)


def decode_spec(data: dict) -> MachineSpec:
    """The recorded spec as a :class:`MachineSpec`. A field this code's
    spec lacks is an :class:`~repro.errors.ArtifactError`; a value it
    rejects, the spec's own :class:`~repro.errors.MachineError`."""
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(MachineSpec)})
    if unknown:
        raise ArtifactError(
            f"recorded machine spec has fields MachineSpec lacks: "
            f"{', '.join(unknown)}"
        )
    return MachineSpec(**data)


def encode_points(points: Iterable) -> List[list]:
    return [[p.algorithm, p.nranks, p.nbytes] for p in points]


def decode_points(data: Iterable) -> List[SweepPoint]:
    from ..core.sweep import SweepPoint

    return [SweepPoint(str(a), int(p), int(n)) for a, p, n in data]


def encode_faults(faults: Optional[FaultPlan]) -> Optional[dict]:
    return None if faults is None else faults.to_dict()


def decode_faults(data: Optional[dict]) -> Optional[FaultPlan]:
    return None if data is None else FaultPlan.from_dict(data)


# -- recipes: the one place a gate's parameters become a call ---------
Progress = Optional[Callable[[str], None]]


def _run_sweep(config: dict, progress: Progress = None) -> Any:
    from ..core.executor import SweepExecutor

    return SweepExecutor(jobs=1, cache=None).run(
        decode_spec(config["spec"]),
        decode_points(config["points"]),
        root=int(config.get("root", 0)),
        placement=config.get("placement", "blocked"),
        faults=decode_faults(config.get("faults")),
    )


def _run_verify(config: dict, progress: Progress = None) -> Any:
    from ..analysis.verify import verifiable_collectives, verify_collective

    collective = config.get("collective", "all")
    return [
        verify_collective(
            name,
            nranks,
            nbytes=int(config.get("nbytes", 65536)),
            root=int(config.get("root", 0)),
        )
        for nranks in [int(p) for p in config.get("ranks", [8])]
        for name in (
            verifiable_collectives(nranks) if collective == "all" else [collective]
        )
    ]


def _run_cost(config: dict, progress: Progress = None) -> Any:
    from ..analysis.costmodel import differential_gate

    return differential_gate(
        spec=decode_spec(config["spec"]),
        placement=config.get("placement", "blocked"),
        band=float(config.get("band", 0.5)),
        progress=progress,
    )


def _run_chaos(config: dict, progress: Progress = None) -> Any:
    from ..analysis.chaos import DEFAULT_RANKS, chaos_gate

    return chaos_gate(
        seed=int(config.get("seed", 0)),
        spec=decode_spec(config["spec"]),
        collectives=config.get("collectives"),
        ranks=config.get("ranks") or DEFAULT_RANKS,
        nbytes=int(config.get("nbytes", 4096)),
        progress=progress,
    )


def _run_replay(config: dict, progress: Progress = None) -> Any:
    from ..analysis.replaygate import DEFAULT_RANKS, DEFAULT_SIZES, replay_gate

    return replay_gate(
        spec=decode_spec(config["spec"]),
        collectives=config.get("collectives"),
        ranks=config.get("ranks") or DEFAULT_RANKS,
        sizes=config.get("sizes") or DEFAULT_SIZES,
        progress=progress,
    )


def _run_mc(config: dict, progress: Progress = None) -> Any:
    from ..analysis.modelcheck import mc_grid

    return mc_grid(
        nbytes=int(config.get("nbytes", 1024)),
        max_states=int(config.get("max_states", 20000)),
        seed=int(config.get("seed", 0)),
        progress=progress,
    )


def _run_prove(config: dict, progress: Progress = None) -> Any:
    from ..analysis.certify import prove_all, prove_collective

    kwargs = dict(
        xval_lo=int(config.get("xval_lo", 2)),
        xval_hi=int(config.get("xval_hi", 64)),
        nbytes=int(config.get("nbytes", 65536)),
        skip_crossval=bool(config.get("skip_crossval", False)),
    )
    if "collective" in config:
        return prove_collective(config["collective"], **kwargs)
    return prove_all(**kwargs)


RUNNERS: Dict[str, Callable[[dict, Progress], Any]] = {
    "sweep": _run_sweep,
    "verify": _run_verify,
    "cost": _run_cost,
    "chaos": _run_chaos,
    "replay": _run_replay,
    "mc": _run_mc,
    "prove": _run_prove,
}


def run_gate(kind: str, config: dict, progress: Progress = None) -> Any:
    """Run one recipe (the dict an artifact stores as ``config``).

    Returns the gate's report: a gate report object, or a list of
    per-point reports (``verify``) or RunRecords (``sweep``). The CLI
    runs its gates through here and :func:`reexecute` re-runs their
    artifacts through here, so the two cannot drift apart.
    """
    runner = RUNNERS.get(kind)
    if runner is None:
        raise ArtifactError(
            f"cannot re-execute artifact kind {kind!r} "
            f"(known: {sorted(RUNNERS)})"
        )
    return runner(config, progress)


def payload(report: Any) -> Any:
    """The JSON payload an artifact stores for a :func:`run_gate` report."""
    if isinstance(report, list):
        return [payload(r) for r in report]
    to_dict = getattr(report, "to_dict", None)
    return to_dict() if to_dict is not None else dataclasses.asdict(report)


def reexecute(artifact: RunArtifact) -> Any:
    """Replay an artifact's recipe; returns the fresh payload."""
    return payload(run_gate(artifact.kind, artifact.config))


@dataclass(frozen=True)
class AuditResult:
    """Verdict of one artifact audit."""

    name: str
    kind: str
    ok: bool
    integrity: List[str] = field(default_factory=list)  # digest problems
    mismatches: List[str] = field(default_factory=list)  # bitwise diffs
    env_drift: List[str] = field(default_factory=list)  # fingerprint moved
    reexecuted: bool = False

    def describe(self) -> str:
        if self.ok:
            return (
                f"audit {self.name}: OK — re-execution reproduced the "
                f"stored records bit-for-bit"
            )
        lines = [f"audit {self.name}: FAILED"]
        for p in self.integrity:
            lines.append(f"  integrity: {p}")
        for m in self.mismatches:
            lines.append(f"  mismatch: {m}")
        if self.mismatches and self.env_drift:
            lines.append(
                "  note: the environment fingerprint moved since this "
                "artifact was recorded —"
            )
            for d in self.env_drift:
                lines.append(f"    {d}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "integrity": list(self.integrity),
            "mismatches": list(self.mismatches),
            "env_drift": list(self.env_drift),
            "reexecuted": self.reexecuted,
        }


def audit_artifact(
    ref, store: Optional[ArtifactStore] = None
) -> AuditResult:
    """Audit one artifact (a path, name, or loaded :class:`RunArtifact`).

    Integrity problems short-circuit (a tampered file is a failure; no
    point re-simulating against altered records). Otherwise the recipe
    is re-executed and diffed bitwise.
    """
    if isinstance(ref, RunArtifact):
        artifact = ref
        name = artifact.name
    else:
        artifact = (store or ArtifactStore()).load(ref)
        name = str(ref)
    problems = artifact.integrity_problems()
    if problems:
        return AuditResult(
            name=name,
            kind=artifact.kind,
            ok=False,
            integrity=problems,
            env_drift=artifact.env_drift(),
        )
    fresh = reexecute(artifact)
    if artifact_digest(fresh) == artifact.records_digest:
        return AuditResult(
            name=name, kind=artifact.kind, ok=True, reexecuted=True
        )
    return AuditResult(
        name=name,
        kind=artifact.kind,
        ok=False,
        mismatches=diff_payload(artifact.records, fresh)
        or ["records digest differs but no structural diff found"],
        env_drift=artifact.env_drift(),
        reexecuted=True,
    )
