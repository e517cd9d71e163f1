"""Benchmark harness: figure/table experiment definitions and rendering."""

from .._lazy import lazy_hub

__all__, __getattr__ = lazy_hub(
    __name__,
    {
        "figures": ["Experiment", "fig6", "fig7", "fig8", "NATIVE", "OPT", "fast_mode"],
        "micro": [
            "PingPongPoint",
            "SolverChurnResult",
            "pingpong",
            "solver_churn",
        ],
        "runner": [
            "get_experiment",
            "bench_jobs",
            "bench_cache",
            "render_bandwidth_table",
            "render_speedup_table",
            "render_plot",
        ],
    },
)
