"""Broadcast collectives: the paper's algorithms and their MPICH peers."""

from .relative import (
    relative_rank,
    absolute_rank,
    subtree_chunks,
    scatter_ownership_extent,
    tuned_ring_role,
)
from .scatter import ScatterResult, binomial_scatter, span_bytes, span_disp
from .allgather_ring import RingResult, ring_allgather_native, ring_allgather_tuned
from .allgather_rd import RdResult, allgather_recursive_doubling
from .allgather import (
    AllgatherResult,
    allgather_ring,
    allgather_rdbl,
    allgather_bruck,
    ALLGATHER_ALGORITHMS,
)
from .binomial import BinomialResult
from .bcast import (
    BcastResult,
    bcast_binomial,
    bcast_scatter_ring_native,
    bcast_scatter_ring_opt,
    bcast_scatter_rdbl,
    ALGORITHMS,
    get_algorithm,
)
from .smp import bcast_smp
from .barrier import BarrierResult, barrier
from .knomial import KnomialResult, bcast_knomial
from .chain import ChainResult, bcast_chain
from .scan import ScanResult, scan_linear, scan_recursive_doubling
from .reduce_scatter import (
    ReduceScatterResult,
    reduce_scatter_halving,
    reduce_scatter_ring,
)
from .allgatherv import AllgathervResult, allgatherv_ring, displacements
from .allreduce import (
    AllreduceResult,
    allreduce_reduce_bcast,
    allreduce_rabenseifner,
)
from .gather import GatherResult, gather, ReduceResult, reduce
from .alltoall import (
    AlltoallResult,
    alltoall_pairwise,
    alltoall_bruck,
    ALLTOALL_ALGORITHMS,
)
from .selector import (
    SHORT_MSG_SIZE,
    LONG_MSG_SIZE,
    MIN_PROCS,
    classify_message,
    choose_bcast_name,
    choose_bcast,
    is_ring_regime,
)
from .schedule import (
    RecordedSend,
    ScheduleResult,
    ScheduleExecutor,
    extract_schedule,
)

__all__ = [
    "relative_rank",
    "absolute_rank",
    "subtree_chunks",
    "scatter_ownership_extent",
    "tuned_ring_role",
    "ScatterResult",
    "binomial_scatter",
    "span_bytes",
    "span_disp",
    "RingResult",
    "ring_allgather_native",
    "ring_allgather_tuned",
    "RdResult",
    "allgather_recursive_doubling",
    "AllgatherResult",
    "allgather_ring",
    "allgather_rdbl",
    "allgather_bruck",
    "ALLGATHER_ALGORITHMS",
    "BinomialResult",
    "BcastResult",
    "bcast_binomial",
    "bcast_scatter_ring_native",
    "bcast_scatter_ring_opt",
    "bcast_scatter_rdbl",
    "bcast_smp",
    "BarrierResult",
    "barrier",
    "KnomialResult",
    "bcast_knomial",
    "ChainResult",
    "bcast_chain",
    "ReduceScatterResult",
    "reduce_scatter_halving",
    "reduce_scatter_ring",
    "ScanResult",
    "scan_linear",
    "scan_recursive_doubling",
    "AllgathervResult",
    "allgatherv_ring",
    "displacements",
    "AllreduceResult",
    "allreduce_reduce_bcast",
    "allreduce_rabenseifner",
    "GatherResult",
    "gather",
    "ReduceResult",
    "reduce",
    "AlltoallResult",
    "alltoall_pairwise",
    "alltoall_bruck",
    "ALLTOALL_ALGORITHMS",
    "ALGORITHMS",
    "get_algorithm",
    "SHORT_MSG_SIZE",
    "LONG_MSG_SIZE",
    "MIN_PROCS",
    "classify_message",
    "choose_bcast_name",
    "choose_bcast",
    "is_ring_regime",
    "RecordedSend",
    "ScheduleResult",
    "ScheduleExecutor",
    "extract_schedule",
]
