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

from .._lazy import lazy_hub

__all__, __getattr__ = lazy_hub(
    __name__,
    {
        "abstract": [
            "AbstractDomainError",
            "Env",
            "Interval",
            "Lin",
            "RingSet",
            "SymSet",
            "const",
            "lin",
            "var",
        ],
        "certify": [
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
        ],
        "timeline": [
            "TAG_NAMES",
            "MessageSpan",
            "message_spans",
            "phase_summary",
            "ascii_timeline",
        ],
        # The function, bound over its namesake module (see repro._lazy).
        "critical_path": ["CriticalPath", "critical_path"],
        "chrometrace": ["to_chrome_trace", "write_chrome_trace"],
        "costmodel": [
            "CostReport",
            "GateCheck",
            "GateReport",
            "LinkLoad",
            "analyze_collective",
            "analyze_schedule",
            "differential_gate",
        ],
        "chaos": [
            "ChaosCheck",
            "ChaosReport",
            "chaos_gate",
            "default_plans",
            "run_chaos_point",
        ],
        "replaygate": [
            "ReplayCheck",
            "ReplayReport",
            "replay_gate",
            "run_replay_point",
        ],
        "lint": ["LintViolation", "lint_paths", "lint_source"],
        "modelcheck": [
            "DeadlockWitness",
            "MCCheck",
            "MCGridReport",
            "MCReport",
            "check_collective",
            "check_program",
            "default_mc_plans",
            "mc_grid",
        ],
        "verify": [
            "CollectiveSpec",
            "RedundantTransfer",
            "RendezvousReport",
            "VerifyReport",
            "Violation",
            "WaitForEdge",
            "check_rendezvous",
            "expected_redundant_native",
            "verifiable_collectives",
            "verify_collective",
            "verify_program",
            "verify_provenance",
        ],
    },
)
