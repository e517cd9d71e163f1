"""Fluid-solver microbenchmarks: churn throughput and grid differentials.

Two kinds of check on the incremental, component-aware solver
(``docs/performance.md``), both against the from-scratch
:class:`~tests.sim.reference_solver.ReferenceFlowNetwork`:

* **Churn micro** — ring-allgather-shaped flow churn driven straight at
  a :class:`~repro.sim.FlowNetwork` at P in {16, 64, 256}, timed for
  both networks. The incremental one must beat the reference on solver
  wall time at P=256 (the BENCH_solver.json acceptance bar is >= 2x)
  while producing the identical simulated schedule.
* **Grid differential** — the full fig6a and fig7 sweeps, run as
  production runs them and on the DES with the reference network, must
  produce bitwise-identical simulated times at every grid point
  (honours ``REPRO_BENCH_FAST`` axis trimming like every other bench).
"""

import pytest

from repro.bench import NATIVE, OPT, fig6, fig7, solver_churn
from repro.core import api
from repro.mpi import runtime

from conftest import publish
from tests.sim.reference_solver import ReferenceFlowNetwork

CHURN_RANKS = (16, 64, 256)


def _churn_pair(nranks):
    inc = solver_churn(nranks)
    ref = solver_churn(nranks, network=ReferenceFlowNetwork)
    return inc, ref


def test_solver_churn_micro(benchmark):
    """Both networks replay the identical churn; incremental is faster."""
    rows = [
        "Solver churn micro (ring-allgather shape, 8 ranks/node):",
        f"  {'P':>4} {'flows':>6} {'inc solve ms':>13} {'ref solve ms':>13} "
        f"{'speedup':>8} {'max comp':>9}",
    ]
    speedups = {}
    for nranks in CHURN_RANKS:
        inc, ref = _churn_pair(nranks)
        # The two implementations must describe the same simulation ...
        assert inc.sim_time == ref.sim_time
        assert inc.flows_completed == ref.flows_completed
        assert inc.flows_cancelled == ref.flows_cancelled
        # ... and both must actually record telemetry.
        for result in (inc, ref):
            assert result.stats.solves > 0
            assert result.stats.rounds >= result.stats.solves
            assert result.stats.solve_time_s > 0.0
            assert result.stats.max_component <= result.nranks
        speedup = ref.solve_time_s / inc.solve_time_s
        speedups[nranks] = speedup
        rows.append(
            f"  {nranks:>4} {inc.flows_completed + inc.flows_cancelled:>6} "
            f"{inc.solve_time_s * 1e3:>13.2f} {ref.solve_time_s * 1e3:>13.2f} "
            f"{speedup:>7.2f}x {inc.stats.max_component:>9}"
        )
    publish("solver_churn", "\n".join(rows))
    # The acceptance bar: at P=256 the incremental solver at least
    # halves solver wall time relative to the reference path.
    assert speedups[256] >= 2.0

    benchmark.pedantic(
        lambda: solver_churn(256).solve_time_s,
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("exp_factory", [lambda: fig6("a"), fig7], ids=["fig6a", "fig7"])
def test_solver_differential_on_figure_grids(exp_factory, benchmark, monkeypatch):
    """The production path and the DES on the reference network agree
    bitwise on whole figure grids — every simulated time, message count
    and byte count."""
    grids = {}
    for mode in ("production", "reference"):
        if mode == "reference":
            monkeypatch.setattr(api, "_is_static", lambda *a: False)
            monkeypatch.setattr(runtime, "FlowNetwork", ReferenceFlowNetwork)
        exp = exp_factory()
        exp.run()  # no disk cache: both modes must really simulate
        records = [
            exp.sweep.record(algo, p, size)
            for algo in (NATIVE, OPT)
            for p in exp.ranks_axis
            for size in exp.sizes_axis
        ]
        grids[mode] = {
            (rec.algorithm, rec.nranks, rec.nbytes): (
                rec.time,
                rec.messages,
                rec.bytes_on_wire,
            )
            for rec in records
        }
    assert {rec.solver_mode for rec in records} == {"reference"}
    assert grids["production"] == grids["reference"]
    assert len(grids["production"]) >= 4

    benchmark.pedantic(lambda: len(grids["production"]), rounds=1, iterations=1)
