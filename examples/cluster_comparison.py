#!/usr/bin/env python3
"""Cluster comparison: the paper's two testbeds, side by side.

The evaluation ran on Hornet (Cray XC40, Aries dragonfly, 24-core
Haswell nodes) and Laki (NEC InfiniBand fat tree, 8-core Nehalem
nodes) and reports that "results from both ... deliver the same
bandwidth performance trend". This example checks that statement in the
model: the tuned broadcast wins on both machines, at every size, even
though their absolute bandwidths differ by a wide margin.

Run:  python examples/cluster_comparison.py
"""

from repro.core import Sweep
from repro.machine import hornet, laki
from repro.util import Table

SIZES = ["512KiB", "1MiB", "2MiB", "4MiB"]
NRANKS = 32
NATIVE, OPT = "scatter_ring_native", "scatter_ring_opt"


def main() -> None:
    specs = {"hornet": hornet(nodes=4), "laki": laki(nodes=8)}
    for name, spec in specs.items():
        print(spec.describe())
    print()

    table = Table(
        ["msg size"]
        + [f"{name} {which}" for name in specs for which in ("native", "opt", "gain")],
        formats=[None] + [".0f", ".0f", lambda v: f"+{v:.1f}%"] * len(specs),
        title=f"Broadcast bandwidth (MB/s), {NRANKS} ranks",
    )

    sweeps = {
        name: Sweep(spec, sizes=SIZES, ranks=[NRANKS], algorithms=[NATIVE, OPT])
        for name, spec in specs.items()
    }
    trend_holds = True
    for size in SIZES:
        row = [size]
        for name, sweep in sweeps.items():
            cmp = sweep.compare(NRANKS, size, NATIVE, OPT)
            row.extend(
                [
                    cmp.native.bandwidth_mib,
                    cmp.opt.bandwidth_mib,
                    cmp.bandwidth_improvement_pct,
                ]
            )
            trend_holds &= cmp.bandwidth_improvement_pct >= 0
        table.add_row(*row)
    print(table)
    print()
    if trend_holds:
        print(
            'both clusters "deliver the same bandwidth performance trend": '
            "the tuned ring wins everywhere, as the paper reports."
        )
    else:
        print("WARNING: trend differs between the two machines!")


if __name__ == "__main__":
    main()
