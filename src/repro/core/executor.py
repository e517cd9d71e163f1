"""Sweep execution: serially, or one process-pool future per point.

Each sweep point is an independent, deterministic simulation, so the
cross product behind a figure is embarrassingly parallel.
:class:`SweepExecutor` runs the points serially or submits each one to
a :class:`concurrent.futures.ProcessPoolExecutor`, and guarantees:

* **deterministic ordering** — results come back in the order the points
  were given, regardless of worker completion order;
* **identical records** — workers run the same ``simulate_bcast`` as the
  serial path, so ``jobs=1`` and ``jobs=N`` produce equal
  :class:`~repro.core.report.RunRecord` rows;
* **faithful failures** — a worker exception is captured worker-side and
  re-raised in the parent as
  :class:`~repro.errors.SweepExecutionError` with the offending point
  attached (arbitrary exceptions do not always survive pickling). A
  killed worker breaks the pool: every point it left unfinished fails
  as ``BrokenProcessPool``, and the error names the earliest of them;
* **cache integration** — an optional
  :class:`~repro.core.diskcache.DiskCache` is consulted before
  simulating, and each record is stored as it arrives, so a failed
  sweep keeps every finished point and a rerun simulates only the rest.

``jobs=1`` (the default) never spawns processes and never imports
:mod:`concurrent.futures`.
"""

from __future__ import annotations

import os
import traceback
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SweepExecutionError
from ..machine import MachineSpec
from .api import simulate_bcast
from .diskcache import DiskCache, cache_key
from .report import RunRecord

__all__ = ["SweepExecutor", "resolve_jobs"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument: ``None``/1 → serial, 0/negative →
    one worker per CPU, otherwise the requested count."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _simulate_point(task):
    """Worker entry point: simulate one point, never raise.

    Returns ``("ok", record)`` or ``("err", type_name, message, tb)`` so
    failures cross the process boundary even when the original exception
    type does not pickle.
    """
    spec, point, root, placement, faults = task
    try:
        rec = simulate_bcast(
            spec,
            nranks=point.nranks,
            nbytes=point.nbytes,
            algorithm=point.algorithm,
            root=root,
            placement=placement,
            faults=faults,
        )
        return ("ok", rec)
    except Exception as exc:  # noqa: BLE001 - serialised and re-raised in parent
        return ("err", type(exc).__name__, str(exc), traceback.format_exc())


class SweepExecutor:
    """Run sweep points serially or across a process pool, with caching
    throughout."""

    def __init__(self, jobs: Optional[int] = 1, cache: Optional[DiskCache] = None):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache

    def _run_parallel(self, tasks: Dict[int, tuple]) -> Iterator[Tuple[int, tuple]]:
        """Yield ``(index, outcome)`` as each point's future completes.
        A killed worker breaks the pool; each point it left unfinished
        comes back as a ``BrokenProcessPool`` failure."""
        import concurrent.futures

        workers = min(self.jobs, len(tasks))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_simulate_point, task): i for i, task in tasks.items()
            }
            for fut in concurrent.futures.as_completed(futures):
                try:
                    outcome = fut.result()
                except concurrent.futures.BrokenExecutor as exc:
                    outcome = ("err", "BrokenProcessPool", str(exc), "")
                yield futures[fut], outcome

    # -- API -----------------------------------------------------------
    def run(
        self,
        spec: MachineSpec,
        points: Sequence,
        root: int = 0,
        placement="blocked",
        progress: Optional[Callable] = None,
        faults=None,
    ) -> List[RunRecord]:
        """Simulate every point; results align index-for-index with
        *points*. ``progress(point)`` fires once per point (cache hits
        included) in point order, before any simulation output is used.
        ``faults`` applies to every point and participates in the cache
        key (a chaos run never collides with a clean one).
        Each fresh record is cached as it arrives; a failure raises
        :class:`~repro.errors.SweepExecutionError` for the earliest
        failed point once the pool has drained (the serial path stops
        at the first)."""
        points = list(points)
        results: List[Optional[RunRecord]] = [None] * len(points)

        # Cache pass: satisfy what we can, collect the cold remainder.
        tasks: Dict[int, tuple] = {}
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
                )
                results[i] = self.cache.get(keys[i])
            if results[i] is None:
                tasks[i] = (spec, point, root, placement, faults)

        # Simulate the cold points: pool fan-out or serial.
        serial = self.jobs == 1 or len(tasks) <= 1
        if serial:
            outcomes = ((i, _simulate_point(task)) for i, task in tasks.items())
        else:
            outcomes = self._run_parallel(tasks)
        failures: Dict[int, tuple] = {}
        for i, outcome in outcomes:
            if outcome[0] != "ok":
                failures[i] = outcome
                if serial:
                    break
                continue
            results[i] = outcome[1]
            if self.cache is not None and keys[i] is not None:
                self.cache.put(keys[i], outcome[1])
        if failures:
            # Deterministic choice regardless of completion order: the
            # failure at the earliest point index.
            i = min(failures)
            _, error_type, message, tb = failures[i]
            raise SweepExecutionError(points[i], error_type, message, tb)
        return results  # type: ignore[return-value]
