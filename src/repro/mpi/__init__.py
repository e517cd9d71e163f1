"""Simulated MPI runtime: pt2pt transport, matching, communicators, jobs."""

from .._lazy import lazy_hub

__all__, __getattr__ = lazy_hub(
    __name__,
    {
        "ops": [
            "ANY_SOURCE",
            "ANY_TAG",
            "SendOp",
            "RecvOp",
            "IsendOp",
            "IrecvOp",
            "WaitOp",
            "ComputeOp",
        ],
        "request": ["Request", "Status"],
        "buffers": ["RealBuffer", "PhantomBuffer", "make_buffer"],
        "matching": ["Envelope", "MatchingEngine"],
        "counters": ["TrafficCounters"],
        "comm": ["Communicator"],
        "context": ["RankContext"],
        "transport": ["Transport"],
        "reliable": ["ACK_TAG", "ReliableTransport"],
        "runtime": ["Job", "JobResult"],
    },
)
