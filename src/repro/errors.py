"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause.
The sub-classes mirror the architectural layers: simulation kernel,
machine model, simulated MPI runtime and collective algorithms.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "ReplayUnsupportedError",
    "MachineError",
    "PlacementError",
    "MpiError",
    "MatchingError",
    "TruncationError",
    "TransportExhaustedError",
    "CollectiveError",
    "ConfigurationError",
    "SweepExecutionError",
    "ArtifactError",
    "AuditMismatchError",
]


class ReproError(Exception):
    """Base class of all exceptions raised by :mod:`repro`."""


class SimulationError(ReproError):
    """A failure inside the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    Carries the list of blocked rank descriptions to make diagnosing a
    mis-matched send/receive schedule straightforward. Repeated
    descriptions (e.g. P-2 ranks all parked on the same ring receive)
    collapse to one line with a ``(xN)`` multiplicity so the headline
    stays readable at large P; ``.blocked`` keeps the full list.
    ``notes`` are further diagnostic lines (matching-engine dumps,
    injected faults) shown after the blocked processes but not counted
    among them.

    ``witness`` optionally attaches a minimized model-checker witness
    (:class:`repro.analysis.modelcheck.DeadlockWitness` — anything whose
    ``str()`` renders a replayable schedule) so the error names not just
    *who* is stuck but the shortest interleaving that gets them stuck.
    """

    def __init__(self, blocked: list, witness=None, notes=()) -> None:
        self.blocked = list(blocked)
        self.notes = list(notes)
        self.witness = witness
        counts: dict = {}
        for b in self.blocked + self.notes:
            line = str(b)
            counts[line] = counts.get(line, 0) + 1
        unique = [
            line if n == 1 else f"{line} (x{n})" for line, n in counts.items()
        ]
        detail = "; ".join(unique[:8])
        if len(unique) > 8:
            detail += f"; ... ({len(unique) - 8} more)"
        message = (
            f"simulation deadlocked with {len(self.blocked)} blocked "
            f"process(es): {detail}"
        )
        if witness is not None:
            message += f"\n{witness}"
        super().__init__(message)


class ReplayUnsupportedError(SimulationError):
    """A schedule cannot be executed by the vectorized replay engine.

    Raised by :func:`repro.sim.replay.compile_schedule` when the
    extracted schedule uses features whose timing is not statically
    determined (wildcard ``ANY_SOURCE`` receives, never-matched blocking
    receives) or when the machine spec enables stochastic latencies.
    :mod:`repro.core.api` catches this and runs the point on the DES.
    """


class MachineError(ReproError):
    """Invalid machine specification or topology construction failure."""


class PlacementError(MachineError):
    """A rank-to-node placement request cannot be satisfied."""


class MpiError(ReproError):
    """Semantic violation of the simulated MPI API."""


class MatchingError(MpiError):
    """Internal message-matching inconsistency."""


class TruncationError(MpiError):
    """An incoming message is larger than the posted receive buffer.

    Real MPI flags this as ``MPI_ERR_TRUNCATE``; we fail loudly because a
    truncated transfer in a collective schedule is always a bug.
    """


class TransportExhaustedError(MpiError):
    """The reliability layer gave up on a link.

    Raised when a message exhausts its retransmission budget — every
    attempt (and its ACK) was lost. Names the dead link so chaos runs
    fail with an actionable diagnosis instead of a generic deadlock.
    """

    def __init__(
        self,
        src: int,
        dst: int,
        tag: int,
        attempts: int,
        nbytes: int = 0,
        cause: str = "",
    ) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.attempts = attempts
        self.nbytes = nbytes
        self.cause = cause
        detail = (
            f"link {src}->{dst} presumed dead: message tag={tag} "
            f"({nbytes} bytes) undeliverable after {attempts} attempt(s)"
        )
        if cause:
            detail += f"; last loss: {cause}"
        super().__init__(detail)


class CollectiveError(ReproError):
    """A collective algorithm was invoked with unusable parameters."""


class ConfigurationError(ReproError):
    """Invalid experiment or sweep configuration."""


class SweepExecutionError(ReproError):
    """A sweep point failed inside a worker.

    Worker processes cannot reliably pickle arbitrary exceptions back to
    the parent, so the executor serialises the failure and re-raises it
    as this type with the offending point attached (``.point``), the
    original exception class name (``.error_type``) and the worker-side
    traceback text (``.worker_traceback``). A worker killed mid-point
    breaks the pool; each point it left unfinished fails with
    ``error_type`` ``"BrokenProcessPool"`` and no traceback.
    """

    def __init__(
        self, point, error_type: str, message: str, worker_traceback: str = ""
    ) -> None:
        self.point = point
        self.error_type = error_type
        self.worker_traceback = worker_traceback
        detail = f"sweep point {point} failed: {error_type}: {message}"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)


class ArtifactError(ReproError):
    """A run artifact cannot be stored, located, or decoded."""


class AuditMismatchError(ReproError):
    """Re-executing a run artifact produced different bytes.

    Raised by :func:`repro.artifacts.audit.audit_artifact` callers that
    asked for exceptions (the CLI reports it as exit 1 instead): either
    the artifact's internal digests no longer match its payload (the
    file was tampered with or torn) or a faithful re-execution diverged
    from the recorded records.
    """

