"""Parameter-sweep driver: the engine behind every figure reproduction.

A :class:`Sweep` runs ``simulate_bcast`` over the cross product of
message sizes, process counts and algorithms, collects
:class:`~repro.core.report.RunRecord` rows and offers the slicing the
benchmark harness needs (series per algorithm, paper-style tables,
comparisons). Results are memoised per (spec-key, point) within the
sweep object so a bench can render several views without re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from ..machine import MachineSpec
from ..util import format_size, parse_size
from ..util.tables import Table
from .api import simulate_bcast
from .diskcache import DiskCache
from .executor import SweepExecutor
from .report import ComparisonRecord, RunRecord

__all__ = ["SweepPoint", "Sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid."""

    algorithm: str
    nranks: int
    nbytes: int


class Sweep:
    """Cross-product sweep over sizes x ranks x algorithms."""

    def __init__(
        self,
        spec: MachineSpec,
        sizes: Iterable,
        ranks: Iterable[int],
        algorithms: Iterable[str],
        root: int = 0,
        placement="blocked",
        faults=None,
    ):
        """``faults`` applies to every point (see
        :func:`~repro.core.api.simulate_bcast`) — a chaos sweep is the
        same grid with a :class:`~repro.sim.faults.FaultPlan` attached."""
        self.spec = spec
        self.sizes = [parse_size(s) for s in sizes]
        self.ranks = list(ranks)
        self.algorithms = list(algorithms)
        self.root = root
        self.placement = placement
        self.faults = faults
        if not self.sizes or not self.ranks or not self.algorithms:
            raise ConfigurationError("sweep needs sizes, ranks and algorithms")
        self._cache: Dict[SweepPoint, RunRecord] = {}

    # -- execution ------------------------------------------------------
    def points(self) -> List[SweepPoint]:
        return [
            SweepPoint(a, p, n)
            for a in self.algorithms
            for p in self.ranks
            for n in self.sizes
        ]

    def run_point(self, point: SweepPoint) -> RunRecord:
        rec = self._cache.get(point)
        if rec is None:
            rec = simulate_bcast(
                self.spec,
                nranks=point.nranks,
                nbytes=point.nbytes,
                algorithm=point.algorithm,
                root=self.root,
                placement=self.placement,
                faults=self.faults,
            )
            self._cache[point] = rec
        return rec

    def run(
        self,
        progress=None,
        jobs: Optional[int] = 1,
        cache: Optional[DiskCache] = None,
    ) -> List[RunRecord]:
        """Run every point; optional ``progress(point)`` hook.

        ``jobs`` fans uncomputed points out over a process pool
        (``1`` = serial in-process, ``0`` = one worker per CPU); results
        are identical and identically ordered regardless. ``cache`` is
        an optional :class:`~repro.core.diskcache.DiskCache` consulted
        before simulating and filled as each record arrives, so repeat
        runs (a rerun after a failure too) skip already-simulated
        points across processes.
        """
        points = self.points()
        todo = [p for p in points if p not in self._cache]
        if progress is not None:
            for point in points:
                if point in self._cache:
                    progress(point)
        if todo:
            records = SweepExecutor(jobs=jobs, cache=cache).run(
                self.spec,
                todo,
                root=self.root,
                placement=self.placement,
                progress=progress,
                faults=self.faults,
            )
            for point, rec in zip(todo, records):
                self._cache[point] = rec
        return [self._cache[p] for p in points]

    # -- slicing ------------------------------------------------------------
    def record(self, algorithm: str, nranks: int, nbytes) -> RunRecord:
        return self.run_point(SweepPoint(algorithm, nranks, parse_size(nbytes)))

    def series(self, algorithm: str, nranks: int) -> Tuple[List[int], List[float]]:
        """(sizes, bandwidth MB/s) for one algorithm at one rank count —
        the shape of a Figure 6/8 curve."""
        xs, ys = [], []
        for n in self.sizes:
            rec = self.record(algorithm, nranks, n)
            xs.append(n)
            ys.append(rec.bandwidth_mib)
        return xs, ys

    def compare(self, nranks: int, nbytes, native: str, opt: str) -> ComparisonRecord:
        size = parse_size(nbytes)
        return ComparisonRecord(
            nranks=nranks,
            nbytes=size,
            native=self.record(native, nranks, size),
            opt=self.record(opt, nranks, size),
        )

    def peak_bandwidth(self, algorithm: str, nranks: int) -> float:
        """Best MB/s across the size axis (the paper's 'peak bandwidth')."""
        return max(self.series(algorithm, nranks)[1])

    # -- rendering -------------------------------------------------------------
    def to_table(
        self, nranks: int, native: str, opt: str, title: str = ""
    ) -> Table:
        """Paper-style rows: size | native MB/s | opt MB/s | improvement %."""
        table = Table(
            ["msg size", f"{native} MB/s", f"{opt} MB/s", "improvement"],
            formats=[None, ".1f", ".1f", lambda v: f"{v:+.1f}%"],
            title=title,
        )
        for n in self.sizes:
            cmp = self.compare(nranks, n, native, opt)
            table.add_row(
                format_size(n),
                cmp.native.bandwidth_mib,
                cmp.opt.bandwidth_mib,
                cmp.bandwidth_improvement_pct,
            )
        return table
