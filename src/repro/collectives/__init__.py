"""Broadcast collectives: the paper's algorithms and their MPICH peers."""

from .._lazy import lazy_hub

__all__, __getattr__ = lazy_hub(
    __name__,
    {
        "relative": [
            "relative_rank",
            "subtree_chunks",
            "scatter_ownership_extent",
            "tuned_ring_role",
        ],
        "scatter": ["ScatterResult", "binomial_scatter", "span_bytes", "span_disp"],
        "allgather_ring": [
            "RingResult",
            "ring_allgather_native",
            "ring_allgather_tuned",
        ],
        "allgather_rd": ["RdResult", "allgather_recursive_doubling"],
        # ``allgather_ring`` is this module's function, not the module
        # above (see repro._lazy).
        "allgather": [
            "AllgatherResult",
            "allgather_ring",
            "allgather_rdbl",
            "allgather_bruck",
            "ALLGATHER_ALGORITHMS",
        ],
        "binomial": ["BinomialResult"],
        "bcast": [
            "BcastResult",
            "bcast_binomial",
            "bcast_scatter_ring_native",
            "bcast_scatter_ring_opt",
            "bcast_scatter_rdbl",
            "ALGORITHMS",
            "get_algorithm",
        ],
        "smp": ["bcast_smp"],
        "barrier": ["BarrierResult", "barrier"],
        "knomial": ["KnomialResult", "bcast_knomial"],
        "chain": ["ChainResult", "bcast_chain"],
        "scan": ["ScanResult", "scan_linear", "scan_recursive_doubling"],
        "reduce_scatter": [
            "ReduceScatterResult",
            "reduce_scatter_halving",
            "reduce_scatter_ring",
        ],
        "allgatherv": ["AllgathervResult", "allgatherv_ring", "displacements"],
        "allreduce": [
            "AllreduceResult",
            "allreduce_reduce_bcast",
            "allreduce_rabenseifner",
        ],
        "gather": ["GatherResult", "gather", "ReduceResult", "reduce"],
        "alltoall": [
            "AlltoallResult",
            "alltoall_pairwise",
            "alltoall_bruck",
            "ALLTOALL_ALGORITHMS",
        ],
        "selector": [
            "SHORT_MSG_SIZE",
            "LONG_MSG_SIZE",
            "MIN_PROCS",
            "classify_message",
            "choose_bcast_name",
            "is_ring_regime",
        ],
        "schedule": [
            "RecordedSend",
            "ScheduleResult",
            "ScheduleExecutor",
            "extract_schedule",
        ],
    },
)
