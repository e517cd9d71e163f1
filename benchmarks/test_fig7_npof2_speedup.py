"""Figure 7 reproduction: throughput speedup of MPI_Bcast_opt over
MPI_Bcast_native for non-power-of-two process counts (9..129) at the
paper's three message sizes (12288 / 524287 / 1048576 bytes).

Shape claims: opt is consistently at least as fast as native at every
npof2 point, and the 12288-byte curve shows the largest speedups at
small process counts (the paper's strongest case).
"""

from repro.bench import OPT, fig7, get_experiment, render_speedup_table
from repro.core import simulate_bcast
from repro.util import line_plot

from conftest import assert_opt_wins, publish


def _exp():
    return get_experiment("fig7", fig7)


def test_fig7_speedups(benchmark):
    exp = _exp()
    series = {}
    for n in exp.sizes_axis:
        xs, ys = [], []
        for p in exp.ranks_axis:
            cmp = exp.sweep.compare(p, n, "scatter_ring_native", OPT)
            xs.append(p)
            ys.append(cmp.speedup)
        series[f"ms={n}"] = (xs, ys)
    plot = line_plot(
        series,
        title="Fig 7: throughput speedup of opt over native",
        xlabel="Number of Processes",
        ylabel="speedup",
    )
    publish("fig7", render_speedup_table(exp) + "\n\n" + plot)
    assert_opt_wins(exp)

    # The smallest message size yields its best speedup at a small count
    # (paper: >2x at 9/17/33, dropping by 65) — check the ordering only.
    small = dict(zip(*series[f"ms={exp.sizes_axis[0]}"]))
    assert max(small, key=small.get) <= 65

    size, nranks = exp.sizes_axis[0], exp.ranks_axis[0]
    benchmark.pedantic(
        lambda: simulate_bcast(exp.spec, nranks, size, algorithm=OPT).time,
        rounds=2,
        iterations=1,
    )


def test_fig7_all_points_in_ring_regime():
    """Every Figure-7 grid point exercises the algorithm the paper tunes
    (mmsg-npof2 or lmsg -> scatter-ring path in MPICH3)."""
    from repro.collectives import is_ring_regime

    exp = _exp()
    for p in exp.ranks_axis:
        for n in exp.sizes_axis:
            assert is_ring_regime(n, p)
