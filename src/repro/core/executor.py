"""Parallel sweep execution over a process pool.

Each sweep point is an independent pure simulation, so the cross product
behind a figure is embarrassingly parallel. :class:`SweepExecutor` fans
points out over a crash-surviving process pool
(:class:`~repro.core.pool.ResilientPool`) and guarantees:

* **deterministic ordering** — results come back in the order the points
  were given, regardless of worker completion order;
* **identical records** — workers run the same ``simulate_bcast`` as the
  serial path, so ``jobs=1`` and ``jobs=N`` produce equal
  :class:`~repro.core.report.RunRecord` rows;
* **faithful failures** — a worker exception is captured worker-side and
  re-raised in the parent as
  :class:`~repro.errors.SweepExecutionError` with the offending point
  attached (arbitrary exceptions do not always survive pickling);
* **cache integration** — an optional
  :class:`~repro.core.diskcache.DiskCache` is consulted before
  simulating and populated afterwards, so only cold points cost CPU;
* **memo-friendly batching** — cold points are grouped by
  ``(algorithm, nranks)`` before fan-out and each group runs start to
  finish inside one worker, so the process-wide solve memo hits across
  the group's size axis instead of being scattered over the pool.

``jobs=1`` (the default) never spawns processes — it is the exact serial
path the sweep driver always had, kept as the fallback for environments
where ``multiprocessing`` is unavailable or unwanted.
"""

from __future__ import annotations

import os
import signal
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import PoisonPointError, SweepExecutionError
from ..machine import MachineSpec
from .api import simulate_bcast
from .diskcache import DiskCache, cache_key
from .report import RunRecord

__all__ = [
    "SweepExecutor",
    "resolve_jobs",
    "group_points",
    "CHAOS_CRASH_ENV",
]

#: Chaos-injection latch directory (worker-crash tests).
#: When set, a worker about to simulate point ``(alg, nranks, nbytes)``
#: first checks ``$REPRO_CHAOS_CRASH/<alg>-<nranks>-<nbytes>``: a file
#: holding a positive integer N makes the worker decrement it and
#: SIGKILL itself — deterministically reproducing "this exact point
#: crashed its worker N times" without mocking the pool.
CHAOS_CRASH_ENV = "REPRO_CHAOS_CRASH"


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument: ``None``/1 → serial, 0/negative →
    one worker per CPU, otherwise the requested count."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _warm_worker() -> None:
    """Pool initializer: pay the imports at worker birth, not on the
    first submitted batch (under ``spawn`` start methods the child
    would otherwise import the broadcast registry and the replay
    engine inside the first job's critical path). The package hubs
    load nothing on their own, so this imports what a worker runs."""
    from . import api  # noqa: F401


def _chaos_crash_hook(point) -> None:
    """Kill this worker if a chaos latch names *point* (see
    :data:`CHAOS_CRASH_ENV`). No-op unless the env var is set."""
    latch_dir = os.environ.get(CHAOS_CRASH_ENV, "")
    if not latch_dir:
        return
    latch = (
        Path(latch_dir) / f"{point.algorithm}-{point.nranks}-{point.nbytes}"
    )
    try:
        remaining = int(latch.read_text(encoding="utf-8").strip())
    except (OSError, ValueError):
        return
    if remaining <= 0:
        return
    latch.write_text(str(remaining - 1), encoding="utf-8")
    os.kill(os.getpid(), signal.SIGKILL)


def _simulate_point(task):
    """Worker entry point: simulate one point, never raise.

    Returns ``("ok", record)`` or ``("err", type_name, message, tb)`` so
    failures cross the process boundary even when the original exception
    type does not pickle.
    """
    spec, point, root, placement, faults, reliable = task
    _chaos_crash_hook(point)
    try:
        rec = simulate_bcast(
            spec,
            nranks=point.nranks,
            nbytes=point.nbytes,
            algorithm=point.algorithm,
            root=root,
            placement=placement,
            faults=faults,
            reliable=reliable,
        )
        return ("ok", rec)
    except Exception as exc:  # noqa: BLE001 - serialised and re-raised in parent
        return ("err", type(exc).__name__, str(exc), traceback.format_exc())


def _simulate_batch(tasks: Sequence[tuple]) -> List[tuple]:
    """Worker entry point for one memo-coherent batch of points.

    Each point is wrapped individually, so one failing point never takes
    its batch siblings down with it.
    """
    return [_simulate_point(task) for task in tasks]


def group_points(points: Sequence, indices: Sequence[int], workers: int) -> List[List[int]]:
    """Partition *indices* into batches that keep worker memos hot.

    Points sharing ``(algorithm, nranks)`` solve the same contention
    structures, so they are batched together (in submission order,
    preserving the size axis). When that yields fewer batches than
    *workers*, the largest batches are split in half until the pool is
    saturated — memo coherence is worth nothing if half the workers sit
    idle.
    Deterministic: depends only on the points, their order and *workers*.
    """
    groups: Dict[tuple, List[int]] = {}
    order: List[tuple] = []
    for i in indices:
        key = (points[i].algorithm, points[i].nranks)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)
    batches = [groups[key] for key in order]
    while len(batches) < workers:
        largest = max(range(len(batches)), key=lambda b: len(batches[b]))
        batch = batches[largest]
        if len(batch) <= 1:
            break
        mid = (len(batch) + 1) // 2
        batches[largest : largest + 1] = [batch[:mid], batch[mid:]]
    return batches


class SweepExecutor:
    """Run sweep points serially or across a process pool, with caching
    throughout."""

    def __init__(self, jobs: Optional[int] = 1, cache: Optional[DiskCache] = None):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache

    # -- internals -----------------------------------------------------
    @staticmethod
    def _unwrap(outcome, point) -> RunRecord:
        if outcome[0] == "ok":
            return outcome[1]
        _, error_type, message, tb = outcome
        # Quarantine failures keep their typed identity across the
        # process boundary.
        if error_type == "PoisonPointError":
            raise PoisonPointError(point, error_type, message, tb)
        raise SweepExecutionError(point, error_type, message, tb)

    def _run_parallel(
        self, tasks: Sequence[tuple], points: Sequence
    ) -> List[RunRecord]:
        """Fan out over a fault-tolerant pool: a SIGKILL'd worker costs a
        respawn and a re-dispatch of the in-flight batches, not the
        sweep; a point that keeps killing workers surfaces as a typed
        :class:`~repro.errors.PoisonPointError`."""
        from .pool import ResilientPool

        records: List[Optional[RunRecord]] = [None] * len(tasks)
        failures: dict = {}  # index -> SweepExecutionError
        workers = min(self.jobs, len(tasks))
        batches = group_points(
            [task[1] for task in tasks], list(range(len(tasks))), workers
        )
        task_map = dict(enumerate(tasks))

        def poison_key(i: int) -> str:
            p = points[i]
            return f"{p.algorithm}:{p.nranks}:{p.nbytes}"

        pool = ResilientPool(jobs=workers, initializer=_warm_worker)
        try:
            for i, outcome in pool.run(
                _simulate_batch, batches, task_map, poison_key=poison_key
            ):
                try:
                    records[i] = self._unwrap(outcome, points[i])
                except SweepExecutionError as exc:
                    failures[i] = exc  # drain the rest, then raise
        finally:
            pool.shutdown(wait=True)
        if failures:
            # Deterministic choice regardless of completion order: the
            # failure at the earliest point index.
            raise failures[min(failures)]
        return records  # type: ignore[return-value]

    # -- API -----------------------------------------------------------
    def run(
        self,
        spec: MachineSpec,
        points: Sequence,
        root: int = 0,
        placement="blocked",
        progress: Optional[Callable] = None,
        faults=None,
        reliable=None,
    ) -> List[RunRecord]:
        """Simulate every point; results align index-for-index with
        *points*. ``progress(point)`` fires once per point (cache hits
        included) in point order, before any simulation output is used.
        ``faults``/``reliable`` apply to every point and participate in
        the cache key (a chaos run never collides with a clean one)."""
        points = list(points)
        results: List[Optional[RunRecord]] = [None] * len(points)

        # Cache pass: satisfy what we can, collect the cold remainder.
        cold: List[int] = []
        keys: List[Optional[str]] = [None] * len(points)
        for i, point in enumerate(points):
            if progress is not None:
                progress(point)
            if self.cache is not None:
                keys[i] = cache_key(
                    spec,
                    point,
                    root=root,
                    placement=placement,
                    faults=faults,
                    reliable=reliable,
                )
                results[i] = self.cache.get(keys[i])
            if results[i] is None:
                cold.append(i)

        # Simulate the cold points: pool fan-out or serial.
        tasks = [(spec, points[i], root, placement, faults, reliable) for i in cold]
        if self.jobs == 1 or len(cold) <= 1:
            fresh = [
                self._unwrap(_simulate_point(task), points[i])
                for task, i in zip(tasks, cold)
            ]
        else:
            fresh = self._run_parallel(tasks, [points[i] for i in cold])

        for i, rec in zip(cold, fresh):
            results[i] = rec
            if self.cache is not None and keys[i] is not None:
                self.cache.put(keys[i], rec)
        return results  # type: ignore[return-value]
