"""Section V's second-platform claim: "the results from both Hornet and
Laki basically deliver the same bandwidth performance trend".

The paper shows only Hornet panels; this bench runs the same lmsg sweep
on the Laki preset (8-core Nehalem nodes, tapered InfiniBand fat tree)
and asserts the trend transfers: the tuned design is at least as fast at
every point and strictly ahead somewhere.
"""

from repro.bench import NATIVE, OPT
from repro.core import Sweep, simulate_bcast
from repro.machine import laki
from repro.util import Table, format_size

from conftest import publish

SIZES = [2**k for k in range(19, 24)]
NRANKS = 32


def test_laki_same_trend(benchmark):
    spec = laki(nodes=8)
    sweep = Sweep(spec, sizes=SIZES, ranks=[NRANKS], algorithms=[NATIVE, OPT])
    table = Table(
        ["msg size", "native MB/s", "opt MB/s", "improvement"],
        formats=[None, ".1f", ".1f", lambda v: f"{v:+.1f}%"],
        title=f"Laki (InfiniBand fat tree), np={NRANKS} — same trend as Hornet",
    )
    worst = float("inf")
    best = -float("inf")
    for size in SIZES:
        cmp = sweep.compare(NRANKS, size, NATIVE, OPT)
        gain = cmp.bandwidth_improvement_pct
        worst = min(worst, gain)
        best = max(best, gain)
        table.add_row(format_size(size), cmp.native.bandwidth_mib, cmp.opt.bandwidth_mib, gain)
    publish("laki_trend", table.render())
    assert worst > -1e-6  # never slower
    assert best > 1.0  # clearly ahead somewhere

    benchmark.pedantic(
        lambda: simulate_bcast(spec, NRANKS, SIZES[0], algorithm=OPT).time,
        rounds=1,
        iterations=1,
    )
