"""Figure 8 reproduction: bandwidth for medium and long messages at a
fixed non-power-of-two process count of 129, sizes 12288..2560000 bytes.

Shape claims: bandwidth grows steadily with message size (no protocol
knees inside this range), and MPI_Bcast_opt tracks above
MPI_Bcast_native throughout (paper: up to ~30% better).
"""

from repro.bench import NATIVE, OPT, fig8, get_experiment, render_bandwidth_table, render_plot
from repro.core import simulate_bcast

from conftest import assert_opt_wins, publish


def _exp():
    return get_experiment("fig8", fig8)


def test_fig8_bandwidth_sweep(benchmark):
    exp = _exp()
    nranks = exp.ranks_axis[0]
    publish(
        "fig8",
        render_bandwidth_table(exp, nranks) + "\n\n" + render_plot(exp, nranks),
    )
    assert_opt_wins(exp)

    # Steady growth: bandwidth at the top of the range clearly exceeds
    # the bottom for both designs (the paper's "increases steadily").
    for algo in (NATIVE, OPT):
        xs, ys = exp.sweep.series(algo, nranks)
        assert ys[-1] > ys[0]

    size = exp.sizes_axis[0]
    benchmark.pedantic(
        lambda: simulate_bcast(exp.spec, nranks, size, algorithm=OPT).time,
        rounds=1,
        iterations=1,
    )


def test_fig8_no_rendezvous_knee_between_neighbours():
    """No sudden drops: each step along the size axis changes bandwidth
    smoothly (the paper attributes this to Cray MPI keeping one protocol
    across the range; our spec keeps one protocol past the eager bound)."""
    exp = _exp()
    nranks = exp.ranks_axis[0]
    for algo in (NATIVE, OPT):
        _, ys = exp.sweep.series(algo, nranks)
        for a, b in zip(ys, ys[1:]):
            assert b > 0.5 * a  # never halves from one point to the next
