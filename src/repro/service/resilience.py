"""Fault-tolerant wrapper around the warm simulation worker pool.

A :class:`concurrent.futures.ProcessPoolExecutor` is brittle by design:
one SIGKILL'd worker (OOM killer, a segfaulting native extension, an
operator ``kill -9``) marks the whole pool broken and every outstanding
future — including batches that were queued but never started — fails
with :class:`~concurrent.futures.process.BrokenProcessPool`. Before
this module, that either wedged a multi-hour sweep or silently dropped
its results; now the pool is a replaceable part:

* **crash recovery** — when the pool breaks, :class:`ResilientPool`
  respawns it (bounded by ``respawn_limit``, with deterministic
  exponential backoff) and re-dispatches *only* the units that were in
  flight, so finished work is never re-simulated;
* **blame isolation** — a crashed multi-point batch is split into
  single-point units and re-run one at a time ("careful mode"), so the
  next crash is attributable to exactly one point;
* **poison-point quarantine** — a single point that kills its worker
  ``poison_threshold`` times is quarantined: it returns a typed
  :class:`~repro.errors.PoisonPointError` outcome naming the point, and
  the rest of the sweep completes normally. Quarantine is remembered
  for the pool's lifetime, so a long-running server refuses to let the
  same point kill workers job after job;
* **wall-clock deadlines** — ``deadline_s`` bounds one job end to end:
  on expiry, unstarted units are cancelled, running ones abandoned, and
  every unfinished point yields a typed ``ServiceDeadlineError``
  outcome. Finished points are still delivered, so clients can resume
  with just the missing remainder.

Outcomes use the executor's worker protocol — ``("ok", record)`` or
``("err", type_name, message, traceback)`` — so the server and the
in-process :class:`~repro.core.executor.SweepExecutor` consume a
resilient pool and a bare one identically. Every decision here is a
pure function of the crash/completion sequence; the only clock reads
are deadline bookkeeping and are marked for the determinism lint.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ResilientPool",
    "RESPAWN_ENV",
    "POISON_ENV",
    "BACKOFF_ENV",
    "DEFAULT_RESPAWN_LIMIT",
    "DEFAULT_POISON_THRESHOLD",
    "DEFAULT_BACKOFF_BASE_S",
]

#: Maximum pool respawns per :meth:`ResilientPool.run` call.
RESPAWN_ENV = "REPRO_SERVE_RESPAWNS"
DEFAULT_RESPAWN_LIMIT = 8

#: Worker kills attributable to one point before it is quarantined.
POISON_ENV = "REPRO_SERVE_POISON"
DEFAULT_POISON_THRESHOLD = 2

#: Base of the deterministic exponential backoff between respawns.
BACKOFF_ENV = "REPRO_SERVE_BACKOFF"
DEFAULT_BACKOFF_BASE_S = 0.05

_BACKOFF_CAP_S = 2.0


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, ""))
    except ValueError:
        return default


def _deadline_outcome(deadline_s: float) -> tuple:
    return (
        "err",
        "ServiceDeadlineError",
        f"job deadline of {deadline_s:.3f}s exceeded; point cancelled "
        f"before completing (finished points were delivered — resubmit "
        f"the remainder)",
        "",
    )


def _exhausted_outcome(respawns: int) -> tuple:
    return (
        "err",
        "ServiceError",
        f"worker pool kept dying: {respawns} respawn(s) exhausted without "
        f"isolating a culprit point",
        "",
    )


class ResilientPool:
    """A warm process pool that survives worker crashes.

    ``initializer`` is passed to every (re)spawned
    :class:`~concurrent.futures.ProcessPoolExecutor`, so worker-side
    memo warm-up behaves exactly as on the bare pool. One instance may
    serve many :meth:`run` calls; the pool and the poison quarantine
    persist across them (that is the point of a warm server).
    """

    def __init__(
        self,
        jobs: int,
        initializer: Optional[Callable[[], None]] = None,
        respawn_limit: Optional[int] = None,
        poison_threshold: Optional[int] = None,
        backoff_base_s: Optional[float] = None,
    ):
        self.jobs = max(1, int(jobs))
        self._initializer = initializer
        self.respawn_limit = (
            _env_int(RESPAWN_ENV, DEFAULT_RESPAWN_LIMIT)
            if respawn_limit is None
            else respawn_limit
        )
        self.poison_threshold = max(
            1,
            _env_int(POISON_ENV, DEFAULT_POISON_THRESHOLD)
            if poison_threshold is None
            else poison_threshold,
        )
        self.backoff_base_s = (
            _env_float(BACKOFF_ENV, DEFAULT_BACKOFF_BASE_S)
            if backoff_base_s is None
            else backoff_base_s
        )
        self._pool = self._spawn()
        # Guards pool replacement: several handler threads may share one
        # pool, and exactly one of them must win the respawn race.
        self._guard = threading.RLock()
        self._generation = 0
        # poison key -> attributable worker kills (pool lifetime).
        self.crash_counts: Dict[str, int] = {}
        self.quarantined: Dict[str, int] = {}
        self.respawns_total = 0

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, initializer=self._initializer
        )

    def _checkout(self):
        """Current (pool, generation) snapshot for one submission round."""
        with self._guard:
            return self._pool, self._generation

    def _respawn(self, generation: int, respawns: int) -> None:
        """Replace a broken pool; deterministic exponential backoff.

        ``generation`` is the snapshot the caller submitted against: if
        another thread already replaced that pool, this call is a no-op
        (its respawn covers ours).
        """
        with self._guard:
            if self._generation != generation:
                return
            self._pool.shutdown(wait=False)
            delay = min(
                self.backoff_base_s * (2 ** max(0, respawns - 1)), _BACKOFF_CAP_S
            )
            if delay > 0:
                time.sleep(delay)
            self._pool = self._spawn()
            self._generation += 1
            self.respawns_total += 1

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (chaos gates kill these)."""
        processes = getattr(self._pool, "_processes", None) or {}
        return sorted(processes.keys())

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)

    # -- batched sweep jobs --------------------------------------------
    def run(
        self,
        fn: Callable[[Sequence[tuple]], List[tuple]],
        batches: Sequence[Sequence[int]],
        tasks: Dict[int, tuple],
        deadline_s: Optional[float] = None,
        poison_key: Optional[Callable[[int], str]] = None,
    ) -> Iterator[Tuple[int, tuple]]:
        """Yield ``(index, outcome)`` for every index in *batches*.

        ``fn`` maps a list of tasks to a list of outcomes (the executor's
        ``_simulate_batch``). Completion order is arbitrary; every index
        yields exactly once — as a result, a worker-side error, a typed
        ``PoisonPointError``, a typed ``ServiceDeadlineError``, or a
        pool-exhaustion ``ServiceError``.
        """
        keyer = poison_key if poison_key is not None else lambda i: str(tasks[i])
        start = time.monotonic()  # det: allow — wall-clock job deadline

        def remaining() -> Optional[float]:
            if deadline_s is None:
                return None
            return deadline_s - (time.monotonic() - start)  # det: allow

        pending: List[List[int]] = []
        for batch in batches:
            unit = []
            for i in batch:
                key = keyer(i)
                if key in self.quarantined:
                    yield i, self._poison_outcome(i, tasks, self.quarantined[key])
                else:
                    unit.append(i)
            if unit:
                pending.append(unit)

        respawns = 0
        careful = False  # after a crash: one unit at a time, precise blame
        while pending:
            left = remaining()
            if left is not None and left <= 0:
                for unit in pending:
                    for i in unit:
                        yield i, _deadline_outcome(deadline_s or 0.0)
                return
            in_flight = pending[:1] if careful else pending
            pending = pending[1:] if careful else []
            pool, gen = self._checkout()
            try:
                futures = {
                    pool.submit(fn, [tasks[i] for i in unit]): unit
                    for unit in in_flight
                }
            except concurrent.futures.BrokenExecutor:
                # The pool died while idle (or between jobs): nothing was
                # running, so nobody is to blame — respawn and retry.
                respawns += 1
                if respawns > self.respawn_limit:
                    for unit in in_flight + pending:
                        for i in unit:
                            yield i, _exhausted_outcome(respawns - 1)
                    return
                self._respawn(gen, respawns)
                pending = in_flight + pending
                continue
            crashed: List[List[int]] = []
            try:
                for fut in concurrent.futures.as_completed(
                    futures, timeout=remaining()
                ):
                    unit = futures.pop(fut)
                    try:
                        outcomes = fut.result()
                    except concurrent.futures.BrokenExecutor:
                        crashed.append(unit)
                        continue
                    for i, outcome in zip(unit, outcomes):
                        yield i, outcome
            except concurrent.futures.TimeoutError:
                # Deadline expired mid-round: cancel what has not
                # started, abandon what has, fail the rest typed.
                for fut, unit in futures.items():
                    fut.cancel()
                    crashed.append(unit)
                for unit in crashed + pending:
                    for i in unit:
                        yield i, _deadline_outcome(deadline_s or 0.0)
                return
            if not crashed:
                careful = False
                continue
            respawns += 1
            if respawns > self.respawn_limit:
                for unit in crashed + pending:
                    for i in unit:
                        yield i, _exhausted_outcome(respawns - 1)
                return
            self._respawn(gen, respawns)
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
                if self.crash_counts[key] >= self.poison_threshold:
                    self.quarantined[key] = self.crash_counts[key]
                    yield i, self._poison_outcome(i, tasks, self.crash_counts[key])
                else:
                    requeue.append([i])
            pending = requeue + pending
            careful = True

    @staticmethod
    def _poison_outcome(i: int, tasks: Dict[int, tuple], crashes: int) -> tuple:
        task = tasks.get(i)
        point = task[1] if task is not None and len(task) > 1 else i
        return (
            "err",
            "PoisonPointError",
            f"sweep point {point} killed {crashes} worker process(es) and "
            f"was quarantined; the rest of the sweep completed",
            "",
        )
