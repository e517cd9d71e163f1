"""High-level API: simulate, compare, count traffic, predict, sweep."""

from .._lazy import lazy_hub

__all__, __getattr__ = lazy_hub(
    __name__,
    {
        "api": [
            "simulate_bcast",
            "compare_bcast",
            "validate_bcast",
        ],
        "report": ["RunRecord", "ComparisonRecord", "MIB_S"],
        "traffic": [
            "subtree_sum",
            "ring_transfers_native",
            "ring_transfers_tuned",
            "transfers_saved",
            "scatter_transfers",
            "total_transfers",
            "ring_bytes_native",
            "ring_bytes_tuned",
            "TrafficReport",
            "measure_traffic",
        ],
        "model": [
            "t_binomial_bcast",
            "t_binomial_scatter",
            "t_ring_allgather",
            "t_scatter_ring_bcast",
            "predict",
        ],
        "fitting": ["FittedModel", "fit_alpha_beta", "characterize"],
        "regimes": ["RegimeCell", "regime_map", "selector_agreement"],
        "sweep": ["Sweep", "SweepPoint"],
        "executor": ["SweepExecutor", "resolve_jobs"],
        "diskcache": ["DiskCache", "CacheStats", "cache_key", "default_cache_dir"],
    },
)
