"""Replay schedules emitted straight from schedule certificates.

The paper's two broadcasts have a closed-form message pattern: the
binomial scatter's tree edges, then a (P-1)-step neighbour ring whose
per-rank ``(step, flag)`` roles
:func:`~repro.collectives.relative.tuned_ring_role` decides. That is
the phase list :mod:`repro.collectives.certificates` declares and
``repro prove`` proves for every P >= 2, so :func:`emit_schedule` builds
the :class:`~repro.sim.replay.ReplaySchedule` from it directly, in
O(sends) list operations, instead of running every rank program through
the :class:`~repro.collectives.schedule.ScheduleExecutor` and compiling
the op log it records. The emitted op streams are the ones extraction
records, op for op:

* a :class:`~repro.collectives.certificates.ScatterPhase` becomes the
  binomial-tree edges: one blocking receive from the parent, then one
  blocking send per child, largest subtree first, skipping zero-byte
  subtrees exactly as
  :func:`~repro.collectives.scatter.binomial_scatter` does;
* a :class:`~repro.collectives.certificates.RingPhase` becomes the
  (P-1)-step grid. A full-duplex step is the isend/irecv/waitall
  triplet ``ctx.sendrecv`` issues; a half-duplex step of the tuned ring
  is one blocking send or receive. Zero-byte ring chunks are still
  issued.

Each receive is bound to the k-th send on its (src, dst, tag) channel,
the non-overtaking rule that decides every match in these programs.
Sends are numbered phase by phase, rank-major and step-major rather
than in extraction's order; :class:`~repro.sim.replay.ReplayEngine`
uses a send's number only as an identifier, so replayed timings are
bitwise the same. Extraction stays the reference: ``repro replay
--grid`` checks every emitted schedule against the compiled extraction
and against the DES.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import CollectiveError
from ..sim.replay import (
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    ReplaySchedule,
)
from ..util import next_power_of_two
from ..util.chunking import scatter_size
from .certificates import CERTIFICATES, RingPhase, ScatterPhase
from .relative import relative_rank, subtree_chunks, tuned_ring_role

__all__ = ["EMITTED", "BCAST_CERTIFICATES", "emit_schedule"]

#: Certificates the emitter covers: the scatter and the two
#: scatter-seeded broadcasts. The allgather-family rings are not.
EMITTED = ("scatter", "bcast_native", "bcast_opt")

#: Broadcast algorithm names whose schedules are emitted, and the
#: certificate each one declares.
BCAST_CERTIFICATES = {
    "scatter_ring_native": "bcast_native",
    "scatter_ring_opt": "bcast_opt",
}


class _Streams:
    """Per-rank op streams and the send table, built phase by phase."""

    def __init__(self, nranks: int):
        self.nranks = nranks
        self.kinds: List[List[int]] = [[] for _ in range(nranks)]
        self.args: List[List[int]] = [[] for _ in range(nranks)]
        self.waits: List[List[Tuple[int, ...]]] = [[] for _ in range(nranks)]
        self.src: List[int] = []
        self.dst: List[int] = []
        self.nbytes: List[int] = []
        self.tag: List[int] = []

    @property
    def n_sends(self) -> int:
        return len(self.src)

    def add_sends(self, src, dst, nbytes, tag: int) -> None:
        """Append sends in order."""
        self.src += src
        self.dst += dst
        self.nbytes += nbytes
        self.tag += [tag] * len(src)

    def schedule(self) -> ReplaySchedule:
        """The finished schedule."""
        return ReplaySchedule(
            nranks=self.nranks,
            ranks=list(range(self.nranks)),
            send_src=self.src,
            send_dst=self.dst,
            send_nbytes=self.nbytes,
            send_tag=self.tag,
            op_kinds=self.kinds,
            op_args=self.args,
            wait_members=self.waits,
            compute_seconds=[[] for _ in range(self.nranks)],
        )


def _emit_scatter(out: _Streams, phase: ScatterPhase, root: int, bounds) -> None:
    """The binomial tree: parent-to-child sends of nonempty subtrees."""
    size = out.nranks
    span = [
        bounds[rel + subtree_chunks(rel, size)] - bounds[rel] for rel in range(size)
    ]
    children: List[List[int]] = []
    for rel in range(size):
        mask = (rel & -rel) if rel else next_power_of_two(size)
        kids = []
        mask >>= 1
        while mask:
            child = rel + mask
            if child < size and span[child] > 0:
                kids.append(child)
            mask >>= 1
        children.append(kids)

    order = [-1] * size  # relative child rank -> send order
    src: List[int] = []
    dst: List[int] = []
    nbytes: List[int] = []
    for g in range(size):
        for child in children[(g - root) % size]:
            order[child] = out.n_sends + len(src)
            src.append(g)
            dst.append((child + root) % size)
            nbytes.append(span[child])
    out.add_sends(src, dst, nbytes, phase.tag)

    for g in range(size):
        rel = (g - root) % size
        kinds = out.kinds[g]
        args = out.args[g]
        if rel and span[rel] > 0:
            kinds.append(OP_RECV)
            args.append(order[rel])
        kinds += [OP_SEND] * len(children[rel])
        args += [order[child] for child in children[rel]]


def _emit_ring(out: _Streams, phase: RingPhase, root: int, bounds) -> None:
    """The (P-1)-step ring: rank r's k-th send carries relative chunk
    ``r - k``; its k-th receive is its left neighbour's k-th send."""
    size = out.nranks
    rels = [(g - root) % size for g in range(size)]
    if phase.tuned:
        roles = [tuned_ring_role(rel, size) for rel in rels]
        half = [step - 1 for step, _ in roles]
        recv_only = [flag == 1 for _, flag in roles]
    else:
        half = [0] * size
        recv_only = [False] * size

    # Chunk sizes in descending relative order, twice over: rank g's
    # sends carry chunks rels[g], rels[g] - 1, ... (mod size), one slice.
    desc = [bounds[c + 1] - bounds[c] for c in range(size)][::-1] * 2
    first_send: List[int] = []
    src: List[int] = []
    dst: List[int] = []
    nbytes: List[int] = []
    for g in range(size):
        count = size - 1 - half[g] if recv_only[g] else size - 1
        first_send.append(out.n_sends + len(src))
        src += [g] * count
        dst += [(g + 1) % size] * count
        start = size - 1 - rels[g]
        nbytes += desc[start : start + count]
    out.add_sends(src, dst, nbytes, phase.tag)

    # Waitall members by op offset; ranks at one offset share the tuples.
    triplets: Dict[int, List[Tuple[int, int]]] = {}
    for g in range(size):
        h = half[g]
        f = size - 1 - h
        mine, left = first_send[g], first_send[(g - 1) % size]
        kinds = out.kinds[g]
        args = out.args[g]
        base = len(kinds)
        if base not in triplets:
            ops = range(base, base + 3 * (size - 1), 3)
            triplets[base] = list(zip(ops, range(base + 1, ops.stop, 3)))
        waits = out.waits[g]
        trip = [0] * (3 * f)
        trip[0::3] = range(mine, mine + f)
        trip[1::3] = range(left, left + f)
        trip[2::3] = range(len(waits), len(waits) + f)
        waits += triplets[base][:f]
        kinds += [OP_ISEND, OP_IRECV, OP_WAIT] * f
        args += trip
        if recv_only[g]:
            kinds += [OP_RECV] * h
            args += range(left + f, left + f + h)
        else:
            kinds += [OP_SEND] * h
            args += range(mine + f, mine + f + h)


def emit_schedule(
    collective: str, nranks: int, nbytes: int, root: int = 0
) -> ReplaySchedule:
    """The replay schedule of certified *collective* (one of
    :data:`EMITTED`) at ``nranks`` ranks, without extraction.

    Raises the :class:`~repro.errors.CollectiveError` the rank programs
    raise for a negative size or an out-of-range root.
    """
    if collective not in EMITTED:
        raise CollectiveError(
            f"no schedule emitter for {collective!r}; emitted: {EMITTED}"
        )
    if nbytes < 0:
        raise CollectiveError(f"negative broadcast size {nbytes}")
    relative_rank(root, root, nranks)  # the programs' size and root checks
    out = _Streams(nranks)
    # Chunk c spans bytes [bounds[c], bounds[c + 1]), as in chunk_disp.
    chunk = scatter_size(nbytes, nranks)
    bounds = [min(c * chunk, nbytes) for c in range(nranks + 1)]
    for phase in CERTIFICATES[collective].phases:
        if isinstance(phase, ScatterPhase):
            _emit_scatter(out, phase, root, bounds)
        else:
            _emit_ring(out, phase, root, bounds)
    return out.schedule()
