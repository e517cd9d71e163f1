"""Discrete-event simulation kernel: engine, coroutines, fluid flows."""

from .engine import Engine, EventHandle
from .process import Proc, StepOutcome, step_coroutine, ensure_generator
from .resources import Resource
from .flows import Flow, FlowNetwork, SolverStats
from .trace import Trace, NullTrace, TraceRecord
from .random import RngStreams
from .faults import (
    Blackout,
    FaultDecision,
    FaultPlan,
    InjectedFault,
    LatencySpike,
    LinkRule,
    RankFault,
)

__all__ = [
    "Engine",
    "EventHandle",
    "Proc",
    "StepOutcome",
    "step_coroutine",
    "ensure_generator",
    "Resource",
    "Flow",
    "FlowNetwork",
    "SolverStats",
    "Trace",
    "NullTrace",
    "TraceRecord",
    "RngStreams",
    "Blackout",
    "FaultDecision",
    "FaultPlan",
    "InjectedFault",
    "LatencySpike",
    "LinkRule",
    "RankFault",
]
