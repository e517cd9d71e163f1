"""Fault-tolerant process pool behind ``SweepExecutor``'s ``jobs=N`` path.

A :class:`concurrent.futures.ProcessPoolExecutor` is brittle by design:
one SIGKILL'd worker (OOM killer, a segfaulting native extension, an
operator ``kill -9``) marks the whole pool broken and every outstanding
future — including batches that were queued but never started — fails
with :class:`~concurrent.futures.process.BrokenProcessPool`. Here the
pool is a replaceable part:

* **crash recovery** — when the pool breaks, :class:`ResilientPool`
  respawns it (at most :data:`RESPAWN_LIMIT` times per run, with
  deterministic exponential backoff) and re-dispatches *only* the units
  that were in flight, so finished work is never re-simulated;
* **blame isolation** — a crashed multi-point batch is split into
  single-point units and re-run one at a time ("careful mode"), so the
  next crash is attributable to exactly one point;
* **poison-point quarantine** — a single point that kills its worker
  :data:`POISON_THRESHOLD` times is quarantined: it returns a typed
  :class:`~repro.errors.PoisonPointError` outcome (the executor's error
  names the point), and the rest of the sweep completes normally. Quarantine is remembered
  for the pool's lifetime, so the same point cannot kill workers again
  in a later :meth:`ResilientPool.run` call.

Outcomes use the executor's worker protocol — ``("ok", record)`` or
``("err", type_name, message, traceback)``. Every decision here is a
pure function of the crash/completion sequence.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ResilientPool",
    "RESPAWN_LIMIT",
    "POISON_THRESHOLD",
    "DEFAULT_BACKOFF_BASE_S",
]

#: Maximum pool respawns per :meth:`ResilientPool.run` call.
RESPAWN_LIMIT = 8

#: Worker kills attributable to one point before it is quarantined.
POISON_THRESHOLD = 2

#: Base of the deterministic exponential backoff between respawns.
DEFAULT_BACKOFF_BASE_S = 0.05

_BACKOFF_CAP_S = 2.0


def _poison_outcome(crashes: int) -> tuple:
    """The outcome of a quarantined point; the executor's error names
    the point, so the message does not."""
    return (
        "err",
        "PoisonPointError",
        f"killed {crashes} worker process(es) and was quarantined; the "
        f"rest of the sweep completed",
        "",
    )


def _exhausted_outcome(respawns: int) -> tuple:
    return (
        "err",
        "BrokenProcessPool",
        f"worker pool kept dying: {respawns} respawn(s) exhausted without "
        f"isolating a culprit point",
        "",
    )


class ResilientPool:
    """A process pool that survives worker crashes.

    ``initializer`` is passed to every (re)spawned
    :class:`~concurrent.futures.ProcessPoolExecutor`. One instance may
    serve many :meth:`run` calls; the pool and the poison quarantine
    persist across them.
    """

    def __init__(
        self,
        jobs: int,
        initializer: Optional[Callable[[], None]] = None,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
    ):
        self.jobs = max(1, int(jobs))
        self._initializer = initializer
        self.backoff_base_s = backoff_base_s
        self._pool = self._spawn()
        # poison key -> attributable worker kills (pool lifetime).
        self.crash_counts: Dict[str, int] = {}
        self.quarantined: Dict[str, int] = {}
        self.respawns_total = 0

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, initializer=self._initializer
        )

    def _respawn(self, respawns: int) -> None:
        """Replace a broken pool; deterministic exponential backoff."""
        self._pool.shutdown(wait=False)
        delay = min(
            self.backoff_base_s * (2 ** max(0, respawns - 1)), _BACKOFF_CAP_S
        )
        if delay > 0:
            time.sleep(delay)
        self._pool = self._spawn()
        self.respawns_total += 1

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)

    # -- batched sweep jobs --------------------------------------------
    def run(
        self,
        fn: Callable[[Sequence[tuple]], List[tuple]],
        batches: Sequence[Sequence[int]],
        tasks: Dict[int, tuple],
        poison_key: Optional[Callable[[int], str]] = None,
    ) -> Iterator[Tuple[int, tuple]]:
        """Yield ``(index, outcome)`` for every index in *batches*.

        ``fn`` maps a list of tasks to a list of outcomes (the executor's
        ``_simulate_batch``). Completion order is arbitrary; every index
        yields exactly once — as a result, a worker-side error, a typed
        ``PoisonPointError``, or a pool-exhaustion ``BrokenProcessPool``.
        """
        keyer = poison_key if poison_key is not None else lambda i: str(tasks[i])

        pending: List[List[int]] = []
        for batch in batches:
            unit = []
            for i in batch:
                key = keyer(i)
                if key in self.quarantined:
                    yield i, _poison_outcome(self.quarantined[key])
                else:
                    unit.append(i)
            if unit:
                pending.append(unit)

        respawns = 0
        careful = False  # after a crash: one unit at a time, precise blame
        while pending:
            in_flight = pending[:1] if careful else pending
            pending = pending[1:] if careful else []
            try:
                futures = {
                    self._pool.submit(fn, [tasks[i] for i in unit]): unit
                    for unit in in_flight
                }
            except concurrent.futures.BrokenExecutor:
                # The pool died while idle (or between jobs): nothing was
                # running, so nobody is to blame — respawn and retry.
                respawns += 1
                if respawns > RESPAWN_LIMIT:
                    for unit in in_flight + pending:
                        for i in unit:
                            yield i, _exhausted_outcome(respawns - 1)
                    return
                self._respawn(respawns)
                pending = in_flight + pending
                continue
            crashed: List[List[int]] = []
            for fut in concurrent.futures.as_completed(futures):
                unit = futures.pop(fut)
                try:
                    outcomes = fut.result()
                except concurrent.futures.BrokenExecutor:
                    crashed.append(unit)
                    continue
                for i, outcome in zip(unit, outcomes):
                    yield i, outcome
            if not crashed:
                careful = False
                continue
            respawns += 1
            if respawns > RESPAWN_LIMIT:
                for unit in crashed + pending:
                    for i in unit:
                        yield i, _exhausted_outcome(respawns - 1)
                return
            self._respawn(respawns)
            requeue: List[List[int]] = []
            for unit in crashed:
                if len(unit) > 1 or not careful:
                    # Not attributable (several points shared the pool,
                    # or the batch had siblings): narrow, do not blame.
                    requeue.extend([i] for i in unit)
                    continue
                (i,) = unit
                key = keyer(i)
                self.crash_counts[key] = self.crash_counts.get(key, 0) + 1
                if self.crash_counts[key] >= POISON_THRESHOLD:
                    self.quarantined[key] = self.crash_counts[key]
                    yield i, _poison_outcome(self.crash_counts[key])
                else:
                    requeue.append([i])
            pending = requeue + pending
            careful = True
