"""Experiment definitions for every figure and table in the paper.

Each ``fig*``/``table*`` function returns an :class:`Experiment` that
knows how to run its sweep and render the same rows/series the paper
reports, together with the paper's qualitative expectations so the
harness can check the *shape* (who wins, roughly by how much) rather
than absolute MB/s.

Set ``REPRO_BENCH_FAST=1`` to subsample the axes (used in CI-style quick
runs); the full axes match the paper.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Tuple

from ..core import Sweep
from ..machine import MachineSpec, hornet

__all__ = [
    "Experiment",
    "fig6",
    "fig7",
    "fig8",
    "NATIVE",
    "OPT",
    "fast_mode",
]

NATIVE = "scatter_ring_native"
OPT = "scatter_ring_opt"

# Fig. 6 x-axis: 2^19 .. 2^25 bytes (the paper sweeps to 30 MB; we keep
# the labelled powers of two).
FIG6_SIZES = [2**k for k in range(19, 26)]
# Fig. 7: the three message sizes at npof2 process counts.
FIG7_SIZES = [12288, 524287, 1048576]
FIG7_RANKS = [9, 17, 33, 65, 129]
# Fig. 8: 12288 .. 2560000 bytes at 129 processes.
FIG8_SIZES = [12288, 32768, 65536, 131072, 262144, 524288, 1048576, 2097152, 2560000]
FIG8_RANKS = 129


def fast_mode() -> bool:
    """Trim axes when REPRO_BENCH_FAST is set (quick sanity runs)."""
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


@dataclass
class Experiment:
    """A figure/table reproduction: sweep + expectations + rendering."""

    exp_id: str
    title: str
    spec: MachineSpec
    sweep: Sweep
    ranks_axis: List[int]
    sizes_axis: List[int]
    paper_claim: str

    def run(self, jobs=1, cache=None) -> None:
        """Populate the sweep; ``jobs``/``cache`` forward to
        :meth:`repro.core.Sweep.run` (parallel fan-out, disk cache)."""
        self.sweep.run(jobs=jobs, cache=cache)

    def comparisons(self) -> List:
        """All (nranks, nbytes) comparison records of the grid."""
        return [
            self.sweep.compare(p, n, NATIVE, OPT)
            for p in self.ranks_axis
            for n in self.sizes_axis
        ]


def _axes(sizes: List[int], ranks: List[int]) -> Tuple[List[int], List[int]]:
    if fast_mode():
        sizes = sizes[:: max(1, len(sizes) // 3)]
        ranks = [r for r in ranks if r <= 33] or ranks[:1]
    return sizes, ranks


def _spec() -> MachineSpec:
    return hornet(nodes=16)


def fig6(sub: str) -> Experiment:
    """Figure 6(a)/(b)/(c): bandwidth vs lmsg size at pof2 process counts."""
    nranks = {"a": 16, "b": 64, "c": 256}[sub]
    sizes, _ = _axes(FIG6_SIZES, [nranks])
    spec = _spec()
    sweep = Sweep(spec, sizes=sizes, ranks=[nranks], algorithms=[NATIVE, OPT])
    claims = {
        "a": "16 procs (intra-node): opt up to ~12% better; peak +10% (2748 vs 2623 MB/s)",
        "b": "64 procs: opt up to ~41% better; peak +13%",
        "c": "256 procs: opt up to ~20% better; peak +16%; cache-effect dip near 3MB",
    }
    return Experiment(
        exp_id=f"fig6{sub}",
        title=f"Figure 6({sub}): lmsg bandwidth, np={nranks}, Hornet-like dragonfly",
        spec=spec,
        sweep=sweep,
        ranks_axis=[nranks],
        sizes_axis=sizes,
        paper_claim=claims[sub],
    )


def fig7() -> Experiment:
    """Figure 7: throughput speedup of opt over native at npof2 counts."""
    sizes, ranks = _axes(FIG7_SIZES, FIG7_RANKS)
    spec = _spec()
    sweep = Sweep(spec, sizes=sizes, ranks=ranks, algorithms=[NATIVE, OPT])
    return Experiment(
        exp_id="fig7",
        title="Figure 7: throughput speedup, npof2 processes (9..129)",
        spec=spec,
        sweep=sweep,
        ranks_axis=ranks,
        sizes_axis=sizes,
        paper_claim=(
            "opt consistently >= native; highest speedups for ms=12288 at "
            "small npof2 counts, flattest curve for ms=1048576"
        ),
    )


def fig8() -> Experiment:
    """Figure 8: bandwidth vs size (12 KiB .. 2.5 MB) at 129 processes."""
    sizes, ranks = _axes(FIG8_SIZES, [FIG8_RANKS])
    spec = _spec()
    sweep = Sweep(spec, sizes=sizes, ranks=ranks, algorithms=[NATIVE, OPT])
    return Experiment(
        exp_id="fig8",
        title="Figure 8: medium+long message bandwidth, np=129",
        spec=spec,
        sweep=sweep,
        ranks_axis=ranks,
        sizes_axis=sizes,
        paper_claim=(
            "bandwidth grows steadily with size; opt up to ~30% better; "
            "no sudden protocol knees"
        ),
    )
