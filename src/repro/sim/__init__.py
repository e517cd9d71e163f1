"""Discrete-event simulation kernel: engine, coroutines, fluid flows."""

from .._lazy import lazy_hub

__all__, __getattr__ = lazy_hub(
    __name__,
    {
        "engine": ["Engine", "EventHandle"],
        "process": ["Proc", "StepOutcome", "step_coroutine", "ensure_generator"],
        "resources": ["Resource"],
        "flows": ["Flow", "FlowNetwork", "SolverStats"],
        "trace": ["Trace", "NullTrace", "TraceRecord"],
        "faults": [
            "Blackout",
            "FaultDecision",
            "FaultPlan",
            "InjectedFault",
            "LatencySpike",
            "LinkRule",
            "RankFault",
        ],
    },
)
