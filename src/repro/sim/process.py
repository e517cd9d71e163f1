"""Generator-coroutine plumbing shared by every program executor.

Rank programs (and collective algorithms) are plain Python generators
that ``yield`` operation descriptors and receive each operation's result
back at the ``yield`` expression. Four executors drive the same
generators:

* the discrete-event runtime (:mod:`repro.mpi.runtime`),
* the schedule-extraction counter (:mod:`repro.collectives.schedule`),
* the match-order model checker (:mod:`repro.analysis.modelcheck`),
* the real-thread backend (:mod:`repro.backends.threads`).

The first two run each program until an op blocks with
:meth:`Proc.drive`, one loop over ``gen.send``. The model checker steps
through :meth:`Proc.advance` and the thread backend through
:func:`step_coroutine`, which report either the next yielded operation
or the final return value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..errors import SimulationError

__all__ = ["BLOCKED", "StepOutcome", "step_coroutine", "ensure_generator"]

_SENTINEL = object()

#: What an executor's op handler returns when the op parks the program;
#: anything else is the op's result, sent back into the generator.
BLOCKED = object()


@dataclass
class StepOutcome:
    """Result of advancing a coroutine one step."""

    done: bool
    value: Any  # yielded operation when not done, return value when done


def step_coroutine(gen: Generator, send_value: Any = _SENTINEL) -> StepOutcome:
    """Advance *gen*, sending *send_value* (or priming it on first step)."""
    try:
        if send_value is _SENTINEL:
            yielded = next(gen)
        else:
            yielded = gen.send(send_value)
    except StopIteration as stop:
        return StepOutcome(done=True, value=stop.value)
    return StepOutcome(done=False, value=yielded)


def throw_into(gen: Generator, exc: BaseException) -> StepOutcome:
    """Raise *exc* inside *gen* (used for failure injection)."""
    try:
        yielded = gen.throw(exc)
    except StopIteration as stop:
        return StepOutcome(done=True, value=stop.value)
    return StepOutcome(done=False, value=yielded)


def ensure_generator(obj: Any, what: str = "program") -> Generator:
    """Validate that a user-supplied program really is a generator.

    A very common mistake is writing a rank program as a normal function
    (forgetting ``yield from``); failing early with a clear message beats
    a cryptic attribute error deep inside the event loop.
    """
    if not isinstance(obj, Generator):
        raise SimulationError(
            f"{what} must be a generator (did you forget 'yield from'?), "
            f"got {type(obj).__name__}"
        )
    return obj


class Proc:
    """Bookkeeping wrapper tying a generator to an executor's state.

    Executors subclass-or-compose: the wrapper stores the generator, a
    human-readable name, blocked/finished flags and the final result.
    """

    __slots__ = ("name", "gen", "finished", "result", "blocked_on", "started")

    def __init__(self, name: str, gen: Generator):
        self.name = name
        self.gen = ensure_generator(gen, what=f"program {name!r}")
        self.finished = False
        self.result: Any = None
        self.blocked_on: Optional[str] = None
        self.started = False

    def advance(self, send_value: Any = _SENTINEL) -> StepOutcome:
        """Step the generator, recording completion state."""
        if self.finished:
            raise SimulationError(f"process {self.name} already finished")
        outcome = (
            step_coroutine(self.gen)
            if not self.started
            else step_coroutine(self.gen, send_value)
        )
        self.started = True
        if outcome.done:
            self.finished = True
            self.result = outcome.value
            self.blocked_on = None
        return outcome

    def drive(
        self, value: Any, idx: int, execute: Callable[[int, Any], Any]
    ) -> bool:
        """Send *value* into the program and run each op it yields
        through ``execute(idx, op)`` until one returns :data:`BLOCKED`
        (returns False) or the program finishes (returns True)."""
        if self.finished:
            raise SimulationError(f"process {self.name} already finished")
        self.started = True
        send = self.gen.send
        while True:
            try:
                op = send(value)
            except StopIteration as stop:
                self.finished = True
                self.result = stop.value
                self.blocked_on = None
                return True
            value = execute(idx, op)
            if value is BLOCKED:
                return False

    def __repr__(self) -> str:
        if self.finished:
            state = "finished"
        elif self.blocked_on:
            state = f"blocked on {self.blocked_on}"
        else:
            state = "runnable"
        return f"<Proc {self.name}: {state}>"
