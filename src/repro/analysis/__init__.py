"""Trace analysis and static verification.

Post-hoc trace tooling (timelines, phase summaries, Chrome trace
export, critical path) plus the static schedule verifier
(:mod:`repro.analysis.verify`), the α-β/LogGP cost engine
(:mod:`repro.analysis.costmodel`), the determinism lint
(:mod:`repro.analysis.lint`), the exhaustive match-order model checker
with dynamic partial-order reduction
(:mod:`repro.analysis.modelcheck`), the engine differential gates:
chaos (:mod:`repro.analysis.chaos`) and replay-vs-DES
(:mod:`repro.analysis.replaygate`), and the parametric proof layer —
an exact symbolic abstract domain (:mod:`repro.analysis.abstract`)
driving inductive schedule certificates
(:mod:`repro.analysis.certify`) that hold for all ``P >= 2``.
"""

from .abstract import (
    AbstractDomainError,
    Env,
    Interval,
    Lin,
    RingSet,
    SymSet,
    const,
    lin,
    var,
)
from .certify import (
    CertificateReport,
    Obligation,
    ProveReport,
    crossvalidate_certificate,
    crossvalidate_roles,
    predicted_redundant_exact,
    predicted_ring_ownership,
    predicted_role,
    prove_all,
    prove_collective,
)
from .timeline import (
    TAG_NAMES,
    MessageSpan,
    message_spans,
    phase_summary,
    rank_activity,
    concurrency_profile,
    busiest_rank,
    ascii_timeline,
)
from .critical_path import CriticalPath, critical_path
from .chrometrace import to_chrome_trace, write_chrome_trace
from .costmodel import (
    CostReport,
    GateCheck,
    GateReport,
    LinkLoad,
    analyze_collective,
    analyze_schedule,
    differential_gate,
)
from .chaos import (
    ChaosCheck,
    ChaosReport,
    chaos_gate,
    default_plans,
    run_chaos_point,
)
from .replaygate import (
    ReplayCheck,
    ReplayReport,
    replay_gate,
    run_replay_point,
)
from .lint import LintViolation, lint_paths, lint_source
from .modelcheck import (
    DeadlockWitness,
    MCCheck,
    MCGridReport,
    MCReport,
    check_collective,
    check_program,
    default_mc_plans,
    mc_grid,
)
from .verify import (
    CollectiveSpec,
    HazardPair,
    RedundantTransfer,
    RendezvousReport,
    VerifyReport,
    Violation,
    WaitForEdge,
    analyze_rendezvous,
    check_rendezvous,
    expected_redundant_native,
    find_match_hazards,
    verifiable_collectives,
    verify_collective,
    verify_program,
    verify_provenance,
)

__all__ = [
    "AbstractDomainError",
    "Env",
    "Interval",
    "Lin",
    "RingSet",
    "SymSet",
    "const",
    "lin",
    "var",
    "CertificateReport",
    "Obligation",
    "ProveReport",
    "crossvalidate_certificate",
    "crossvalidate_roles",
    "predicted_redundant_exact",
    "predicted_ring_ownership",
    "predicted_role",
    "prove_all",
    "prove_collective",
    "TAG_NAMES",
    "MessageSpan",
    "message_spans",
    "phase_summary",
    "rank_activity",
    "concurrency_profile",
    "busiest_rank",
    "ascii_timeline",
    "CriticalPath",
    "critical_path",
    "to_chrome_trace",
    "write_chrome_trace",
    "CostReport",
    "GateCheck",
    "GateReport",
    "LinkLoad",
    "analyze_collective",
    "analyze_schedule",
    "differential_gate",
    "ChaosCheck",
    "ChaosReport",
    "chaos_gate",
    "default_plans",
    "run_chaos_point",
    "ReplayCheck",
    "ReplayReport",
    "replay_gate",
    "run_replay_point",
    "LintViolation",
    "lint_paths",
    "lint_source",
    "DeadlockWitness",
    "MCCheck",
    "MCGridReport",
    "MCReport",
    "check_collective",
    "check_program",
    "default_mc_plans",
    "mc_grid",
    "CollectiveSpec",
    "HazardPair",
    "RedundantTransfer",
    "RendezvousReport",
    "VerifyReport",
    "Violation",
    "WaitForEdge",
    "analyze_rendezvous",
    "check_rendezvous",
    "expected_redundant_native",
    "find_match_hazards",
    "verifiable_collectives",
    "verify_collective",
    "verify_program",
    "verify_provenance",
]
