"""Replay schedules emitted straight from schedule certificates.

The paper's two broadcasts have a closed-form message pattern: the
binomial scatter's tree edges, then a (P-1)-step neighbour ring whose
per-rank ``(step, flag)`` roles
:func:`~repro.collectives.relative.tuned_ring_role` decides. That is
the phase list :mod:`repro.collectives.certificates` declares and
``repro prove`` proves for every P >= 2, so :func:`emit_schedule` builds
the :class:`~repro.sim.replay.ReplaySchedule` from it directly, in
O(sends) numpy, instead of running every rank program through the
:class:`~repro.collectives.schedule.ScheduleExecutor` and compiling the
op log it records. The emitted op streams are the ones extraction
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

import numpy as np

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
        self.kinds: List[List[np.ndarray]] = [[] for _ in range(nranks)]
        self.args: List[List[np.ndarray]] = [[] for _ in range(nranks)]
        self.n_ops = [0] * nranks
        self.waits: List[List[Tuple[int, ...]]] = [[] for _ in range(nranks)]
        self.columns: List[Tuple[np.ndarray, ...]] = []
        self.n_sends = 0

    def add_sends(self, src, dst, nbytes, tag: int) -> int:
        """Append sends in order; returns the order of the first one."""
        first = self.n_sends
        src = np.asarray(src, dtype=np.int64)
        self.columns.append(
            (
                src,
                np.asarray(dst, dtype=np.int64),
                np.asarray(nbytes, dtype=np.int64),
                np.full(len(src), tag, dtype=np.int64),
            )
        )
        self.n_sends += len(src)
        return first

    def add_ops(self, rank: int, kinds: np.ndarray, args: np.ndarray) -> None:
        self.kinds[rank].append(kinds)
        self.args[rank].append(args)
        self.n_ops[rank] += len(kinds)

    def schedule(self) -> ReplaySchedule:
        """The finished schedule; every phase adds sends and ops."""

        def join(parts: List[np.ndarray]) -> np.ndarray:
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        src, dst, nbytes, tag = (np.concatenate(col) for col in zip(*self.columns))
        return ReplaySchedule(
            nranks=self.nranks,
            ranks=list(range(self.nranks)),
            send_src=src,
            send_dst=dst,
            send_nbytes=nbytes,
            send_tag=tag,
            op_kinds=[join(p) for p in self.kinds],
            op_args=[join(p) for p in self.args],
            wait_members=self.waits,
            compute_seconds=[[] for _ in range(self.nranks)],
        )


def _emit_scatter(out: _Streams, phase: ScatterPhase, root: int, bounds) -> None:
    """The binomial tree: parent-to-child sends of nonempty subtrees."""
    size = out.nranks
    span = [
        int(bounds[rel + subtree_chunks(rel, size)] - bounds[rel])
        for rel in range(size)
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
        kinds = [OP_SEND] * len(children[rel])
        args = [order[child] for child in children[rel]]
        if rel and span[rel] > 0:
            kinds.insert(0, OP_RECV)
            args.insert(0, order[rel])
        out.add_ops(g, np.array(kinds, dtype=np.int8), np.array(args, dtype=np.int64))


def _emit_ring(out: _Streams, phase: RingPhase, root: int, bounds) -> None:
    """The (P-1)-step ring: rank r's k-th send carries relative chunk
    ``r - k``; its k-th receive is its left neighbour's k-th send."""
    size = out.nranks
    ranks = np.arange(size)
    rels = (ranks - root) % size
    if phase.tuned:
        roles = [tuned_ring_role(int(rel), size) for rel in rels]
        half = np.array([step - 1 for step, _ in roles], dtype=np.int64)
        recv_only = np.array([flag == 1 for _, flag in roles], dtype=bool)
    else:
        half = np.zeros(size, dtype=np.int64)
        recv_only = np.zeros(size, dtype=bool)
    full = size - 1 - half
    n_send = np.where(recv_only, full, full + half)

    offset = np.cumsum(n_send) - n_send
    src = np.repeat(ranks, n_send)
    k = np.arange(len(src)) - np.repeat(offset, n_send)
    chunk = (rels[src] - k) % size
    first = out.add_sends(src, (src + 1) % size, np.diff(bounds)[chunk], phase.tag)
    first_send = (first + offset).tolist()

    steps = np.arange(size, dtype=np.int64)
    # Waitall members by op offset; ranks at one offset share the tuples.
    triplets: Dict[int, List[Tuple[int, int]]] = {}
    for g in range(size):
        f, h = int(full[g]), int(half[g])
        mine, left = first_send[g], first_send[(g - 1) % size]
        kinds = np.empty(3 * f + h, dtype=np.int8)
        args = np.empty(3 * f + h, dtype=np.int64)
        kinds[0 : 3 * f : 3] = OP_ISEND
        args[0 : 3 * f : 3] = mine + steps[:f]
        kinds[1 : 3 * f : 3] = OP_IRECV
        args[1 : 3 * f : 3] = left + steps[:f]
        kinds[2 : 3 * f : 3] = OP_WAIT
        args[2 : 3 * f : 3] = len(out.waits[g]) + steps[:f]
        if recv_only[g]:
            kinds[3 * f :] = OP_RECV
            args[3 * f :] = left + steps[f : f + h]
        else:
            kinds[3 * f :] = OP_SEND
            args[3 * f :] = mine + steps[f : f + h]
        base = out.n_ops[g]
        if base not in triplets:
            ops = range(base, base + 3 * (size - 1), 3)
            triplets[base] = list(zip(ops, range(base + 1, ops.stop, 3)))
        out.waits[g].extend(triplets[base][:f])
        out.add_ops(g, kinds, args)


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
    bounds = np.minimum(
        np.arange(nranks + 1, dtype=np.int64) * scatter_size(nbytes, nranks), nbytes
    )
    for phase in CERTIFICATES[collective].phases:
        if isinstance(phase, ScatterPhase):
            _emit_scatter(out, phase, root, bounds)
        else:
            _emit_ring(out, phase, root, bounds)
    return out.schedule()
