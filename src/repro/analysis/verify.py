"""Static schedule verification: provenance, redundancy, deadlock, match order.

The paper's entire claim is a *static* property of the broadcast
schedule: the tuned ring allgather ships strictly fewer messages because
it never re-sends a chunk the receiver already holds (56 vs 44 at P=8,
90 vs 75 at P=10, ``S - P`` saved in general, where ``S`` is the sum of
binomial-subtree extents). This module proves the properties behind
those counts — for any collective in the registry, at any P — without
running the timing simulation:

1. **Chunk provenance** (:func:`verify_provenance`): a forward data-flow
   pass over per-rank chunk-ownership sets. Every send must only ship
   chunks the sender already holds at that point of the recorded
   schedule, and every rank must terminate owning its expected final
   set (the full buffer, for broadcast/allgather).
2. **Redundancy detection**: a transfer whose chunk set is already
   wholly owned by the receiver is flagged. The native enclosed ring
   produces exactly ``S - P`` of these; the paper's tuned ring produces
   zero. Registry entries carry the expected count as an assertion.
3. **Rendezvous deadlock analysis** (:func:`check_rendezvous`): the
   extracted op log is walked under *synchronous-send* semantics —
   stricter than the schedule executor's buffered sends — and, on a
   stall, the wait-for graph is reported with the blocked rank/op cycle.
4. **The match-order premise**: passes 1–3 read the one match order
   extraction recorded. Without an ``ANY_SOURCE`` receive, MPI's
   non-overtaking rule leaves no other, so they cover every execution.
   Each rank that posts one is a ``match-order`` violation: the other
   orders are :func:`repro.analysis.modelcheck.check_program`'s to
   explore.

Entry points: :func:`verify_collective` (registry name), and
:func:`verify_program` for arbitrary rank programs. The ``repro
verify`` CLI subcommand wraps them with table/JSON output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..collectives.allgather import allgather_bruck, allgather_rdbl, allgather_ring
from ..collectives.allgatherv import allgatherv_ring
from ..collectives.allreduce import allreduce_rabenseifner, allreduce_reduce_bcast
from ..collectives.alltoall import alltoall_bruck, alltoall_pairwise
from ..collectives.barrier import barrier
from ..collectives.bcast import (
    bcast_binomial,
    bcast_scatter_rdbl,
    bcast_scatter_ring_native,
    bcast_scatter_ring_opt,
)
from ..collectives.chain import bcast_chain
from ..collectives.gather import gather, reduce
from ..collectives.knomial import bcast_knomial
from ..collectives.reduce_scatter import reduce_scatter_halving, reduce_scatter_ring
from ..collectives.relative import relative_rank, subtree_chunks
from ..collectives.scan import scan_linear, scan_recursive_doubling
from ..collectives.scatter import binomial_scatter
from ..collectives.schedule import RecordedSend, ScheduleResult, extract_schedule
from ..core.traffic import transfers_saved
from ..errors import ConfigurationError, MpiError, ReproError
from ..mpi.context import RankContext
from ..sim.replay import OP_IRECV, OP_ISEND, OP_RECV, OP_SEND, OP_WAIT
from ..util.chunking import chunk_count, scatter_size
from ..util.intervals import ChunkSet
from ..util.sizes import is_power_of_two

__all__ = [
    "Violation",
    "RedundantTransfer",
    "WaitForEdge",
    "RendezvousReport",
    "VerifyReport",
    "CollectiveSpec",
    "REGISTRY",
    "verifiable_collectives",
    "expected_redundant_native",
    "verify_provenance",
    "check_rendezvous",
    "verify_program",
    "verify_collective",
]


# ---------------------------------------------------------------------------
# Report records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One verifier finding that makes the schedule incorrect."""

    # "provenance" | "completeness" | "redundancy" | "deadlock"
    # | "match-order" | "error"
    kind: str
    detail: str
    send_order: Optional[int] = None
    rank: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.rank is not None:
            where.append(f"rank {self.rank}")
        if self.send_order is not None:
            where.append(f"send #{self.send_order}")
        prefix = f" ({', '.join(where)})" if where else ""
        return f"[{self.kind}]{prefix} {self.detail}"


@dataclass(frozen=True)
class RedundantTransfer:
    """A transfer whose entire chunk set the receiver already owned."""

    order: int
    src: int
    dst: int
    tag: int
    chunks: Tuple[int, ...]


@dataclass(frozen=True)
class WaitForEdge:
    """``rank`` cannot proceed until ``waits_on`` acts (op says why)."""

    rank: int
    waits_on: int
    op: str


@dataclass
class RendezvousReport:
    """Outcome of the synchronous-send deadlock analysis."""

    deadlocked: bool
    cycle: List[WaitForEdge] = field(default_factory=list)
    blocked: List[str] = field(default_factory=list)

    def describe(self) -> str:
        if not self.deadlocked:
            return "rendezvous-safe"
        if self.cycle:
            chain = " -> ".join(
                f"rank {e.rank} [{e.op}] waits on rank {e.waits_on}"
                for e in self.cycle
            )
            return f"DEADLOCK cycle: {chain}"
        return f"DEADLOCK (no cycle; orphaned ops): {'; '.join(self.blocked)}"


@dataclass
class VerifyReport:
    """Everything the static verifier concluded about one schedule."""

    collective: str
    nranks: int
    nbytes: int
    root: int
    transfers: int = 0
    tracked: bool = False
    redundant: List[RedundantTransfer] = field(default_factory=list)
    expected_redundant: Optional[int] = None
    violations: List[Violation] = field(default_factory=list)
    rendezvous: Optional[RendezvousReport] = None

    @property
    def redundant_count(self) -> int:
        return len(self.redundant)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        lines = [
            f"{self.collective}: P={self.nranks}, nbytes={self.nbytes}, "
            f"root={self.root} — {self.transfers} transfer(s)"
        ]
        if self.tracked:
            expect = (
                "" if self.expected_redundant is None
                else f" (expected {self.expected_redundant})"
            )
            lines.append(f"  redundant transfers: {self.redundant_count}{expect}")
        else:
            lines.append("  chunk provenance: untracked for this collective")
        if self.rendezvous is not None:
            lines.append(f"  rendezvous: {self.rendezvous.describe()}")
        for v in self.violations:
            lines.append(f"  VIOLATION {v}")
        lines.append(f"  verdict: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "collective": self.collective,
            "nranks": self.nranks,
            "nbytes": self.nbytes,
            "root": self.root,
            "transfers": self.transfers,
            "tracked": self.tracked,
            "redundant_count": self.redundant_count if self.tracked else None,
            "expected_redundant": self.expected_redundant,
            "redundant": [
                {
                    "order": r.order,
                    "src": r.src,
                    "dst": r.dst,
                    "tag": r.tag,
                    "chunks": list(r.chunks),
                }
                for r in self.redundant
            ],
            "rendezvous_deadlock": (
                None if self.rendezvous is None else self.rendezvous.deadlocked
            ),
            "rendezvous_cycle": (
                []
                if self.rendezvous is None
                else [
                    {"rank": e.rank, "waits_on": e.waits_on, "op": e.op}
                    for e in self.rendezvous.cycle
                ]
            ),
            "violations": [str(v) for v in self.violations],
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# Pass 1 + 2: chunk provenance and redundancy (forward data-flow)
# ---------------------------------------------------------------------------


def verify_provenance(
    schedule: ScheduleResult,
    initial_owned: List[ChunkSet],
    expected_final: Optional[List[ChunkSet]] = None,
) -> Tuple[List[Violation], List[RedundantTransfer], List[ChunkSet]]:
    """Forward data-flow pass over per-rank chunk-ownership sets.

    Walks the recorded sends in execution order. A send may only ship
    chunks its source already owns (ownership only ever grows, and the
    recorded order is a valid linearization of the buffered execution,
    so this is a sound proof for the schedule as run). The receiver
    gains the shipped chunks; a transfer whose whole chunk set the
    receiver already had is flagged redundant. Sends without chunk
    metadata are ignored by the ownership pass.

    Returns ``(violations, redundant_transfers, final_ownership)``.
    """
    if len(initial_owned) != schedule.nranks:
        raise ConfigurationError(
            f"initial_owned has {len(initial_owned)} entries for "
            f"{schedule.nranks} ranks"
        )
    owned = [cs.copy() for cs in initial_owned]
    violations: List[Violation] = []
    redundant: List[RedundantTransfer] = []
    for s in schedule.sends:
        if not s.chunks:
            continue
        src_owned = owned[s.src]
        missing = [c for c in s.chunks if c not in src_owned]
        if missing:
            violations.append(
                Violation(
                    kind="provenance",
                    detail=(
                        f"rank {s.src} sends chunks {missing} to rank {s.dst} "
                        f"(tag {s.tag}) before owning them; owned: "
                        f"{sorted(src_owned)}"
                    ),
                    send_order=s.order,
                    rank=s.src,
                )
            )
        dst_owned = owned[s.dst]
        if s.nbytes > 0 and all(c in dst_owned for c in s.chunks):
            # Zero-byte messages (empty trailing chunks kept circulating
            # to preserve ring structure) waste no bandwidth and are not
            # counted as redundant.
            redundant.append(
                RedundantTransfer(s.order, s.src, s.dst, s.tag, s.chunks)
            )
        for c in s.chunks:
            dst_owned.add(c)
    if expected_final is not None:
        for rank, expect in enumerate(expected_final):
            missing_chunks = [c for c in expect if c not in owned[rank]]
            if missing_chunks:
                violations.append(
                    Violation(
                        kind="completeness",
                        detail=(
                            f"rank {rank} terminates missing chunks "
                            f"{missing_chunks}"
                        ),
                        rank=rank,
                    )
                )
    return violations, redundant, owned


# ---------------------------------------------------------------------------
# Pass 3: rendezvous-mode deadlock analysis
# ---------------------------------------------------------------------------


_SENDS = (OP_SEND, OP_ISEND)
_RECVS = (OP_RECV, OP_IRECV)
_BLOCKING = (OP_SEND, OP_RECV, OP_WAIT)  # ops that can park a rank
_NEVER = float("inf")  # op index of a receive that was never posted


def check_rendezvous(schedule: ScheduleResult) -> RendezvousReport:
    """Walk the extracted op log under *synchronous-send* semantics.

    Stricter than the buffered extraction that recorded it: a send or
    isend completes once its matched receive is posted (``MPI_Ssend``,
    the rendezvous protocol), a recv or irecv once its matched send is
    issued, and a waitall once all its members have. Programs that are
    only correct thanks to eager buffering stall; the ranks left blocked
    are reported with their wait-for edges and the first cycle among
    them. The pairing is the one extraction recorded, which is MPI's for
    programs without wildcard sources; an ``ANY_SOURCE`` receive is
    checked in the match order extraction saw (pass 4 flags it).
    """
    log, sends = schedule.op_log, schedule.sends
    issued_at = [0] * len(sends)  # send order -> op index at its sender
    posted_at: Dict[int, Tuple[int, int]] = {}  # send order -> (rank, op index)
    for rank, ops in log.items():
        for i, (kind, arg) in enumerate(ops):
            if kind in _SENDS:
                issued_at[arg] = i
            elif kind in _RECVS and arg >= 0:
                posted_at[arg] = (rank, i)
            elif kind == OP_WAIT and not all(0 <= m < i for m in arg):
                raise MpiError(
                    f"rank {rank} waits on a request not returned by its "
                    f"own isend/irecv (op {i}); the rendezvous pass cannot "
                    f"place it"
                )
    pc = dict.fromkeys(log, 0)  # ops before pc[rank] completed; pc[rank] issued

    def blocker(rank: int, i: int) -> Optional[int]:
        """The rank op *i* of *rank* still waits on; None once complete."""
        kind, arg = log[rank][i]
        if kind in _SENDS:
            peer, j = posted_at.get(arg, (sends[arg].dst, _NEVER))
        elif kind in _RECVS:
            peer, j = sends[arg].src, issued_at[arg]
        else:  # a waitall waits on its first incomplete member
            for m in arg:
                peer = blocker(rank, m)
                if peer is not None:
                    return peer
            return None
        return None if pc[peer] >= j else peer

    progress = True
    while progress:
        progress = False
        for rank, ops in log.items():
            start = pc[rank]
            while pc[rank] < len(ops) and (
                ops[pc[rank]][0] not in _BLOCKING or blocker(rank, pc[rank]) is None
            ):
                pc[rank] += 1
            progress = progress or pc[rank] > start

    edges: Dict[int, List[WaitForEdge]] = {}
    for rank, ops in log.items():
        if pc[rank] < len(ops):
            kind, arg = ops[pc[rank]]
            for m in arg if kind == OP_WAIT else (pc[rank],):
                peer = blocker(rank, m)
                if peer is not None:
                    op = _describe_op(ops[m], sends)
                    edges.setdefault(rank, []).append(WaitForEdge(rank, peer, op))
    blocked = [
        f"rank {rank}: {', '.join(e.op for e in rank_edges)}"
        for rank, rank_edges in sorted(edges.items())
    ]
    return RendezvousReport(
        deadlocked=bool(edges), cycle=_find_cycle(edges), blocked=blocked
    )


def _describe_op(entry: List, sends: List[RecordedSend]) -> str:
    """``send(dst=1, tag=0, nbytes=64)``-style rendering of a send or
    receive op-log entry, by the message it carried or matched."""
    s = sends[entry[1]]
    if entry[0] in _SENDS:
        return f"send(dst={s.dst}, tag={s.tag}, nbytes={s.nbytes})"
    return f"recv(src={s.src}, tag={s.tag}, nbytes={s.nbytes})"


def _find_cycle(edges: Dict[int, List[WaitForEdge]]) -> List[WaitForEdge]:
    """First wait-for cycle via iterative DFS; [] when none exists."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {rank: WHITE for rank in edges}
    for start in sorted(edges):
        if color[start] != WHITE:
            continue
        path: List[WaitForEdge] = []
        stack: List[Tuple[int, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, i = stack[-1]
            outgoing = edges.get(node, [])
            if i >= len(outgoing):
                color[node] = BLACK
                stack.pop()
                if path:
                    path.pop()
                continue
            stack[-1] = (node, i + 1)
            edge = outgoing[i]
            nxt = edge.waits_on
            if color.get(nxt, BLACK) == GRAY:
                # Found a back edge: slice the cycle out of the path.
                path.append(edge)
                for j, e in enumerate(path):
                    if e.rank == nxt:
                        return path[j:]
                return path  # pragma: no cover - defensive
            if color.get(nxt, BLACK) == WHITE:
                color[nxt] = GRAY
                path.append(edge)
                stack.append((nxt, 0))
    return []


# ---------------------------------------------------------------------------
# Collective registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollectiveSpec:
    """How to build and judge one collective for verification.

    ``build(nranks, nbytes, root)`` returns a program factory for the
    executors. ``initial_owned``/``expected_final`` (per *global* rank,
    relative chunk ids) enable the provenance pass; ``None`` marks the
    collective untracked (no chunk metadata on its sends), in which case
    only the deadlock and match-order passes run. ``expected_redundant`` turns
    the redundancy count into an assertion.
    """

    name: str
    build: Callable[[int, int, int], Callable[[RankContext], object]]
    initial_owned: Optional[Callable[[int, int, int], List[ChunkSet]]] = None
    expected_final: Optional[Callable[[int, int, int], List[ChunkSet]]] = None
    expected_redundant: Optional[Callable[[int, int], Optional[int]]] = None
    pof2_only: bool = False
    description: str = ""

    @property
    def tracked(self) -> bool:
        return self.initial_owned is not None

    def supports(self, nranks: int) -> bool:
        return nranks >= 1 and (not self.pof2_only or is_power_of_two(nranks))


def _uniform_chunks(nranks: int, nbytes: int) -> bool:
    """True when every one of the P scatter chunks carries bytes.

    The paper's transfer arithmetic assumes this (its message sizes are
    far above P); with empty trailing chunks MPICH skips transfers, so
    the closed-form counts stop applying.
    """
    return nranks >= 1 and chunk_count(nbytes, nranks, nranks - 1) > 0


def expected_redundant_native(nranks: int, nbytes: int = 1 << 20) -> Optional[int]:
    """``S - P``: redundant transfers of the enclosed (native) ring.

    ``S = sum(subtree_chunks(r))`` over relative ranks, evaluated by
    :func:`repro.core.traffic.transfers_saved`. Every non-leaf
    subtree root of extent ``e`` receives ``e - 1`` chunks it already
    holds from the scatter — exactly the sends the tuned ring drops
    (12 at P=8: 56 -> 44; 15 at P=10: 90 -> 75). Returns ``None``
    (assertion waived) when empty trailing chunks break the arithmetic.
    """
    if nranks < 2:
        return 0
    if not _uniform_chunks(nranks, nbytes):
        return None
    return transfers_saved(nranks)


BuildFn = Callable[[int, int, int], Callable[[RankContext], object]]


def _wrap(algo: Callable[..., Any], *extra: Any, **kw: Any) -> BuildFn:
    """Adapt ``algo(ctx, *args)`` into a ``build(nranks, nbytes, root)``."""

    def build(nranks: int, nbytes: int, root: int) -> Callable[[RankContext], object]:
        args = [a(nranks, nbytes, root) if callable(a) else a for a in extra]

        def factory(ctx: RankContext) -> object:
            def program() -> Generator[Any, Any, Any]:
                return (yield from algo(ctx, *args, **kw))

            return program()

        return factory

    return build


def _bcast_build(algo: Callable[..., Any]) -> BuildFn:
    return _wrap(algo, lambda n, b, r: b, lambda n, b, r: r)


def _block_build(algo: Callable[..., Any]) -> BuildFn:
    """Collectives taking a per-rank block size instead of a total."""
    return _wrap(algo, lambda n, b, r: scatter_size(b, n))


def _empty_scatter_chunks(nranks: int, nbytes: int) -> List[int]:
    """Chunk ids that carry zero bytes at this (nbytes, P).

    The algorithms skip zero-byte subtree transfers (MPICH behaviour),
    so data-flow treats empty chunks as universally pre-owned: there is
    nothing to deliver.
    """
    return [i for i in range(nranks) if chunk_count(nbytes, nranks, i) == 0]


def _bcast_initial(nranks: int, nbytes: int, root: int) -> List[ChunkSet]:
    """Broadcast start: the root owns everything, everyone else only the
    empty (zero-byte) chunks."""
    empty = _empty_scatter_chunks(nranks, nbytes)
    return [
        ChunkSet.full(nranks) if g == root else ChunkSet(nranks, empty)
        for g in range(nranks)
    ]


def _bcast_final(nranks: int, nbytes: int, root: int) -> List[ChunkSet]:
    return [ChunkSet.full(nranks) for _ in range(nranks)]


def _subtree_sets(nranks: int, root: int) -> List[ChunkSet]:
    """Relative rank r's binomial-subtree run ``[r, r + extent)``."""
    final = []
    for g in range(nranks):
        rel = relative_rank(g, root, nranks)
        final.append(ChunkSet.interval(nranks, rel, subtree_chunks(rel, nranks)))
    return final


def _scatter_final(nranks: int, nbytes: int, root: int) -> List[ChunkSet]:
    """Scatter end state: the subtree run, plus the zero-byte chunks
    everyone owns by construction."""
    empty = ChunkSet(nranks, _empty_scatter_chunks(nranks, nbytes))
    final = _subtree_sets(nranks, root)
    for cs in final:
        cs.union_update(empty)
    return final


def _gather_final(nranks: int, nbytes: int, root: int) -> List[ChunkSet]:
    """Gather end state: blocks are uniform (block_bytes * P total), so
    no chunk is ever empty — each rank accumulates exactly its run."""
    if scatter_size(nbytes, nranks) == 0:
        return [ChunkSet.full(nranks) for _ in range(nranks)]
    return _subtree_sets(nranks, root)


def _block_initial(nranks: int, nbytes: int, root: int) -> List[ChunkSet]:
    """Allgather start: global rank g owns physical block g (the root is
    meaningless for allgathers; blocks are rank-indexed). When the
    derived block size is zero there is no data at all — everything is
    vacuously owned."""
    if scatter_size(nbytes, nranks) == 0:
        return [ChunkSet.full(nranks) for _ in range(nranks)]
    return [ChunkSet(nranks, [g]) for g in range(nranks)]


def _gather_initial(nranks: int, nbytes: int, root: int) -> List[ChunkSet]:
    """Gather start: relative rank r contributes block r."""
    if scatter_size(nbytes, nranks) == 0:
        return [ChunkSet.full(nranks) for _ in range(nranks)]
    return [
        ChunkSet(nranks, [relative_rank(g, root, nranks)]) for g in range(nranks)
    ]


def _allgatherv_counts(nranks: int, nbytes: int, root: int) -> List[int]:
    base = max(1, scatter_size(nbytes, nranks))
    return [(i % 3 + 1) * base for i in range(nranks)]


def _allgatherv_initial(nranks: int, nbytes: int, root: int) -> List[ChunkSet]:
    """Allgatherv start: counts are clamped to >= 1 byte per rank (see
    :func:`_allgatherv_counts`), so block g always carries data — no
    vacuous-ownership fallback."""
    return [ChunkSet(nranks, [g]) for g in range(nranks)]


def _zero(_nranks: int, _nbytes: int) -> int:
    return 0


REGISTRY: Dict[str, CollectiveSpec] = {}


def _register(spec: CollectiveSpec) -> None:
    REGISTRY[spec.name] = spec


_register(
    CollectiveSpec(
        name="bcast_native",
        build=_bcast_build(bcast_scatter_ring_native),
        initial_owned=_bcast_initial,
        expected_final=_bcast_final,
        expected_redundant=expected_redundant_native,
        description="binomial scatter + enclosed ring (MPI_Bcast_native)",
    )
)
_register(
    CollectiveSpec(
        name="bcast_opt",
        build=_bcast_build(bcast_scatter_ring_opt),
        initial_owned=_bcast_initial,
        expected_final=_bcast_final,
        expected_redundant=_zero,
        description="binomial scatter + tuned ring (MPI_Bcast_opt, the paper)",
    )
)
_register(
    CollectiveSpec(
        name="bcast_rdbl",
        build=_bcast_build(bcast_scatter_rdbl),
        initial_owned=_bcast_initial,
        expected_final=_bcast_final,
        pof2_only=True,
        description="binomial scatter + recursive-doubling allgather",
    )
)
_register(
    CollectiveSpec(
        name="bcast_binomial",
        build=_bcast_build(bcast_binomial),
        description="short-message binomial tree (full-buffer, untracked)",
    )
)
_register(
    CollectiveSpec(
        name="bcast_knomial4",
        build=_wrap(bcast_knomial, lambda n, b, r: b, lambda n, b, r: r, radix=4),
        description="radix-4 k-nomial tree (untracked)",
    )
)
_register(
    CollectiveSpec(
        name="bcast_chain",
        build=_wrap(
            bcast_chain, lambda n, b, r: b, lambda n, b, r: r, segment_bytes=65536
        ),
        description="pipelined chain, 64 KiB segments (untracked)",
    )
)
_register(
    CollectiveSpec(
        name="scatter",
        build=_bcast_build(binomial_scatter),
        initial_owned=_bcast_initial,
        expected_final=_scatter_final,
        expected_redundant=_zero,
        description="binomial-tree scatter (phase one of the broadcasts)",
    )
)
_register(
    CollectiveSpec(
        name="gather",
        build=_wrap(gather, lambda n, b, r: scatter_size(b, n), lambda n, b, r: r),
        initial_owned=_gather_initial,
        expected_final=_gather_final,
        expected_redundant=_zero,
        description="binomial-tree gather (scatter's mirror)",
    )
)
_register(
    CollectiveSpec(
        name="allgather_ring",
        build=_block_build(allgather_ring),
        initial_owned=_block_initial,
        expected_final=_bcast_final,
        expected_redundant=_zero,
        description="ring allgather (bandwidth-optimal, any P)",
    )
)
_register(
    CollectiveSpec(
        name="allgather_rdbl",
        build=_block_build(allgather_rdbl),
        initial_owned=_block_initial,
        expected_final=_bcast_final,
        expected_redundant=_zero,
        pof2_only=True,
        description="recursive-doubling allgather",
    )
)
_register(
    CollectiveSpec(
        name="allgather_bruck",
        build=_block_build(allgather_bruck),
        initial_owned=_block_initial,
        expected_final=_bcast_final,
        expected_redundant=_zero,
        description="Bruck (dissemination) allgather",
    )
)
_register(
    CollectiveSpec(
        name="allgatherv_ring",
        build=_wrap(allgatherv_ring, _allgatherv_counts),
        initial_owned=_allgatherv_initial,
        expected_final=_bcast_final,
        expected_redundant=_zero,
        description="ring allgatherv with uneven per-rank counts",
    )
)
_register(
    CollectiveSpec(
        name="reduce",
        build=_wrap(reduce, lambda n, b, r: b, lambda n, b, r: r),
        description="binomial-tree reduce (data combined, untracked)",
    )
)
_register(
    CollectiveSpec(
        name="reduce_scatter_halving",
        build=_wrap(reduce_scatter_halving, lambda n, b, r: b),
        pof2_only=True,
        description="recursive-halving reduce-scatter (untracked)",
    )
)
_register(
    CollectiveSpec(
        name="reduce_scatter_ring",
        build=_wrap(reduce_scatter_ring, lambda n, b, r: b),
        description="ring reduce-scatter (untracked)",
    )
)
_register(
    CollectiveSpec(
        name="allreduce_reduce_bcast",
        build=_wrap(allreduce_reduce_bcast, lambda n, b, r: b),
        description="binomial reduce + tuned broadcast (untracked)",
    )
)
_register(
    CollectiveSpec(
        name="allreduce_rabenseifner",
        build=_wrap(allreduce_rabenseifner, lambda n, b, r: b),
        pof2_only=True,
        description="Rabenseifner allreduce (untracked)",
    )
)
_register(
    CollectiveSpec(
        name="scan_linear",
        build=_wrap(scan_linear, lambda n, b, r: b),
        description="linear (chain) prefix scan (untracked)",
    )
)
_register(
    CollectiveSpec(
        name="scan_rd",
        build=_wrap(scan_recursive_doubling, lambda n, b, r: b),
        description="recursive-doubling prefix scan (untracked)",
    )
)
_register(
    CollectiveSpec(
        name="alltoall_pairwise",
        build=_block_build(alltoall_pairwise),
        description="pairwise-exchange alltoall (untracked)",
    )
)
_register(
    CollectiveSpec(
        name="alltoall_bruck",
        build=_block_build(alltoall_bruck),
        description="Bruck alltoall (untracked)",
    )
)
_register(
    CollectiveSpec(
        name="barrier",
        build=_wrap(barrier),
        description="dissemination barrier (untracked)",
    )
)


def verifiable_collectives(nranks: Optional[int] = None) -> List[str]:
    """Registry names, optionally filtered to those supporting *nranks*."""
    names = sorted(REGISTRY)
    if nranks is None:
        return names
    return [n for n in names if REGISTRY[n].supports(nranks)]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def verify_program(
    nranks: int,
    program_factory: Callable[[RankContext], object],
    initial_owned: Optional[List[ChunkSet]] = None,
    expected_final: Optional[List[ChunkSet]] = None,
    expected_redundant: Optional[int] = None,
    name: str = "<program>",
    nbytes: int = 0,
    root: int = 0,
) -> VerifyReport:
    """Statically verify an arbitrary rank program.

    Runs the buffered schedule extraction once, then reads that one
    schedule in every pass: provenance / redundancy (when
    ``initial_owned`` is given), the rendezvous deadlock analysis and
    the match-order premise.
    """
    report = VerifyReport(
        collective=name,
        nranks=nranks,
        nbytes=nbytes,
        root=root,
        tracked=initial_owned is not None,
        expected_redundant=expected_redundant,
    )
    try:
        schedule = extract_schedule(nranks, program_factory)
    except ReproError as exc:
        report.violations.append(
            Violation(kind="error", detail=f"{type(exc).__name__}: {exc}")
        )
        return report
    report.transfers = schedule.transfers
    if initial_owned is not None:
        violations, redundant, _ = verify_provenance(
            schedule, initial_owned, expected_final
        )
        report.violations.extend(violations)
        report.redundant = redundant
        if expected_redundant is not None and len(redundant) != expected_redundant:
            report.violations.append(
                Violation(
                    kind="redundancy",
                    detail=(
                        f"measured {len(redundant)} redundant transfer(s), "
                        f"expected exactly {expected_redundant}"
                    ),
                )
            )
    try:
        report.rendezvous = check_rendezvous(schedule)
    except MpiError as exc:
        report.violations.append(
            Violation(
                kind="error",
                detail=f"rendezvous analysis: {type(exc).__name__}: {exc}",
            )
        )
    else:
        if report.rendezvous.deadlocked:
            report.violations.append(
                Violation(
                    kind="deadlock",
                    detail=f"rendezvous analysis: {report.rendezvous.describe()}",
                )
            )
    for rank in schedule.any_source_ranks:
        report.violations.append(
            Violation(
                kind="match-order",
                detail=(
                    "posts an ANY_SOURCE receive: only the match order "
                    "extraction saw was verified; "
                    "repro.analysis.modelcheck.check_program explores them all"
                ),
                rank=rank,
            )
        )
    _stabilize(report)
    return report


def _stabilize(report: VerifyReport) -> None:
    """Sort violations by stable keys so ``--json`` output is
    byte-identical across runs regardless of discovery order."""
    report.violations.sort(
        key=lambda v: (
            v.kind,
            v.rank if v.rank is not None else -1,
            v.send_order if v.send_order is not None else -1,
            v.detail,
        )
    )


def verify_collective(
    name: str,
    nranks: int,
    nbytes: int = 65536,
    root: int = 0,
) -> VerifyReport:
    """Run the full verification pass for one registry collective."""
    try:
        spec = REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown collective {name!r}; known: {sorted(REGISTRY)}"
        ) from None
    if not spec.supports(nranks):
        raise ConfigurationError(
            f"collective {name!r} does not support P={nranks}"
            + (" (power-of-two only)" if spec.pof2_only else "")
        )
    return verify_program(
        nranks,
        spec.build(nranks, nbytes, root),
        initial_owned=(
            spec.initial_owned(nranks, nbytes, root) if spec.initial_owned else None
        ),
        expected_final=(
            spec.expected_final(nranks, nbytes, root) if spec.expected_final else None
        ),
        expected_redundant=(
            spec.expected_redundant(nranks, nbytes)
            if spec.expected_redundant is not None
            else None
        ),
        name=name,
        nbytes=nbytes,
        root=root,
    )
