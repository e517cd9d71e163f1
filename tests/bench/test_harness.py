"""Smoke tests for the benchmark harness (fast axes, small grids)."""

from repro.bench import (
    NATIVE,
    OPT,
    fig6,
    fig7,
    fig8,
    get_experiment,
    render_bandwidth_table,
    render_plot,
    render_speedup_table,
)
from repro.bench.figures import Experiment, fast_mode
from repro.core import Sweep
from repro.machine import hornet


def tiny_experiment():
    spec = hornet(nodes=2)
    sizes = [2**16, 2**18]
    sweep = Sweep(spec, sizes=sizes, ranks=[8], algorithms=[NATIVE, OPT])
    return Experiment(
        exp_id="tiny",
        title="tiny experiment",
        spec=spec,
        sweep=sweep,
        ranks_axis=[8],
        sizes_axis=sizes,
        paper_claim="opt >= native",
    )


class TestDefinitions:
    def test_fig6_variants(self):
        for sub, nranks in (("a", 16), ("b", 64), ("c", 256)):
            exp = fig6(sub)
            assert exp.ranks_axis == [nranks]
            assert exp.exp_id == f"fig6{sub}"
            assert exp.spec.topology == "dragonfly"

    def test_fig6_sizes_match_paper_axis(self):
        assert fig6("a").sizes_axis[0] >= 2**19  # lmsg only

    def test_fig7_axes(self):
        exp = fig7()
        assert 12288 in exp.sizes_axis
        assert set(exp.ranks_axis) <= {9, 17, 33, 65, 129}
        # All npof2 (the case the paper targets).
        assert all(p & (p - 1) for p in exp.ranks_axis)

    def test_fig8_axes(self):
        exp = fig8()
        assert exp.ranks_axis == [129]
        assert exp.sizes_axis[0] == 12288

    def test_fast_mode_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FAST", "1")
        assert fast_mode()
        exp = fig7()
        assert max(exp.ranks_axis) <= 33
        monkeypatch.setenv("REPRO_BENCH_FAST", "0")
        assert not fast_mode()


class TestRunnerAndRendering:
    def test_get_experiment_caches(self):
        calls = []

        def factory():
            calls.append(1)
            return tiny_experiment()

        e1 = get_experiment("tiny-test", factory)
        e2 = get_experiment("tiny-test", factory)
        assert e1 is e2
        assert calls == [1]

    def test_bandwidth_table_renders(self):
        exp = tiny_experiment()
        exp.run()
        text = render_bandwidth_table(exp, 8)
        assert "64KiB" in text and "improvement" in text
        assert "tiny experiment" in text

    def test_speedup_table_renders(self):
        exp = tiny_experiment()
        exp.run()
        text = render_speedup_table(exp)
        assert "np=8" in text

    def test_plot_renders(self):
        exp = tiny_experiment()
        exp.run()
        text = render_plot(exp, 8)
        assert "o=native" in text and "x=opt" in text

    def test_comparisons_cover_grid(self):
        exp = tiny_experiment()
        exp.run()
        cmps = exp.comparisons()
        assert len(cmps) == 2
        for c in cmps:
            assert c.opt.time <= c.native.time * (1 + 1e-9)
