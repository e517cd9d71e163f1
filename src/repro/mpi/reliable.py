"""A reliable transport: sequence numbers, ACKs, timeout + retransmit.

:class:`ReliableTransport` is the :class:`~repro.mpi.transport.Transport`
of every run with a non-zero :class:`~repro.sim.faults.FaultPlan`: it
injects the plan's faults and survives them. Every transmission consults
``plan.decide(src, dst, tag, op_index)``; drops and corruptions lose the
packet, duplicates deliver a second copy, and latency effects (rank
slowdown, spikes, per-rule surcharges) stretch the transmission. The
protocol is a deliberately small stop-and-wait-per-message ARQ:

* every data packet carries a per-``(src, dst)`` **sequence number**;
* the receiving transport **positively ACKs** each packet it buffers;
  the *send request completes when its ACK arrives* — crucially at the
  transport level, independent of the receiving rank's program, so the
  tuned ring's half-duplex degraded steps (a rank in a send-only step
  whose peer is in a recv-only step) still terminate under loss;
* an unACKed packet is **retransmitted** after a timeout that grows by
  :data:`BACKOFF`\\ :sup:`attempt` (so retries straddle blackout windows),
  up to :data:`MAX_RETRIES` retransmissions — then the sender declares
  the link dead with a typed :class:`~repro.errors.TransportExhaustedError`;
* the receiver delivers each channel **in order** (TCP-style reassembly
  of out-of-order arrivals) which preserves MPI's non-overtaking rule
  even when a retransmission overtakes a later packet, **suppresses
  duplicates** (re-ACKing them, since a duplicate usually means the
  first ACK died), and **discards checksum-failed payloads** so a
  corruption becomes a loss the retry machinery already handles.

Modelling notes: reliable mode prices transfers analytically (path
latency + ``nbytes / bottleneck-bandwidth``) instead of through the
fluid-flow solver — retransmissions are not contention-priced, which is
fine for the chaos gate's correctness questions and keeps the ARQ state
machine independent of flow lifetimes. Rendezvous is not used: every
payload ships with its packet and the ACK provides the only
synchronisation. Wire accounting stays differential-friendly: first
transmissions hit the normal ``messages``/``bytes`` counters, while
retransmissions, duplicates and ACKs only touch the chaos fields — a
run with zero retransmissions reports counters bitwise-identical to a
fault-free run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import TransportExhaustedError
from ..sim.faults import FaultDecision, FaultPlan, InjectedFault
from .matching import Envelope
from .request import Request
from .transport import Transport, _Delivery

__all__ = ["ReliableTransport", "ACK_TAG"]

#: Tag reserved for ACK control packets (never visible to matching).
ACK_TAG = -101

# The retransmit timeout of attempt *k* (0-based) is
# ``(MIN_TIMEOUT + TIMEOUT_MARGIN * rtt_estimate) * BACKOFF**k``, where the
# RTT estimate is two path latencies plus the payload serialisation time
# (see docs/robustness.md).
MIN_TIMEOUT = 20e-6
TIMEOUT_MARGIN = 4.0
BACKOFF = 2.0
#: Retransmissions before the sender declares the link dead.
MAX_RETRIES = 6
#: Wire size of one ACK control packet.
ACK_NBYTES = 64

#: Keep at most this many injected-fault audit records per run.
_FAULT_LOG_CAP = 512


class _Packet:
    """One transmission on the wire (original, retransmission or dup)."""

    __slots__ = ("send_req", "payload", "seq", "corrupt")

    def __init__(self, send_req: Request, payload, seq: int, corrupt: bool):
        self.send_req = send_req
        self.payload = payload
        self.seq = seq
        self.corrupt = corrupt


class _PendingSend:
    """Sender-side ARQ state for one unacknowledged message."""

    __slots__ = ("req", "seq", "attempts", "timer", "acked", "last_cause")

    def __init__(self, req: Request, seq: int):
        self.req = req
        self.seq = seq
        self.attempts = 0  # transmissions so far (1 = original only)
        self.timer = None
        self.acked = False
        self.last_cause = ""


class ReliableTransport(Transport):
    """Fault-injecting ARQ transport (module docstring)."""

    def __init__(self, *args, faults: FaultPlan):
        super().__init__(*args)
        self.faults = faults
        self.fault_log: List[InjectedFault] = []
        self._op_index: Dict[Tuple[int, int], int] = {}  # per-link xmit counter
        self._send_seq: Dict[Tuple[int, int], int] = {}  # next seq to assign
        self._pending: Dict[Tuple[int, int, int], _PendingSend] = {}
        self._next_seq: Dict[Tuple[int, int], int] = {}  # next seq to deliver
        self._ooo: Dict[Tuple[int, int], Dict[int, _Packet]] = {}

    # -- fault injection ---------------------------------------------------
    def _decide_fault(self, src: int, dst: int, tag: int) -> FaultDecision:
        """Evaluate the fault plan for the next transmission on a link.

        Advances the per-link op-index even for clean decisions, so
        predicates stay addressable by "the k-th message on this link"
        regardless of what earlier rules did.
        """
        op_index = self._op_index.get((src, dst), 0)
        self._op_index[(src, dst)] = op_index + 1
        return self.faults.decide(src, dst, tag, op_index, now=self.engine.now)

    def _log_fault(self, kind: str, src: int, dst: int, tag: int, cause: str) -> None:
        if len(self.fault_log) < _FAULT_LOG_CAP:
            self.fault_log.append(
                InjectedFault(
                    time=self.engine.now,
                    kind=kind,
                    src=src,
                    dst=dst,
                    tag=tag,
                    op_index=self._op_index.get((src, dst), 1) - 1,
                    cause=cause,
                )
            )

    def fault_summary(self) -> List[str]:
        """Audit lines for every fault actually injected this run.

        Appended to deadlock reports so a chaos-run hang names the
        suppressed message instead of reading like a schedule bug.
        """
        out = [f.describe() for f in self.fault_log]
        if len(self.fault_log) >= _FAULT_LOG_CAP:
            out.append(f"... (fault log capped at {_FAULT_LOG_CAP} records)")
        return out

    # -- timing ---------------------------------------------------------
    def _xfer_seconds(self, plan, nbytes: int) -> float:
        """Analytic serialisation time on the path's bottleneck."""
        if nbytes == 0:
            return 0.0
        caps = [res.capacity for res in plan.resources]
        if plan.rate_cap:
            caps.append(plan.rate_cap)
        return nbytes / min(caps) if caps else 0.0

    def _timeout_seconds(self, plan, xfer_s: float, attempts: int) -> float:
        """Retransmit timeout of a transmission whose payload takes
        *xfer_s* seconds (:meth:`_xfer_seconds`) on the path."""
        rtt = 2.0 * plan.latency + xfer_s
        base = MIN_TIMEOUT + TIMEOUT_MARGIN * rtt
        return base * BACKOFF ** max(attempts - 1, 0)

    # -- send path ------------------------------------------------------
    def _launch_send(self, req: Request) -> None:
        plan = self.machine.transfer_plan(req.owner, req.peer)
        self.counters.record(req.owner, req.peer, req.nbytes, plan.intra_node)
        channel = (req.owner, req.peer)
        seq = self._send_seq.get(channel, 0)
        self._send_seq[channel] = seq + 1
        state = _PendingSend(req, seq)
        self._pending[(req.owner, req.peer, seq)] = state
        self._transmit(state, plan)

    def _transmit(self, state: _PendingSend, plan=None) -> None:
        """Put one copy of the message on the wire and arm the timer."""
        req = state.req
        if plan is None:
            plan = self.machine.transfer_plan(req.owner, req.peer)
        state.attempts += 1
        decision = self._decide_fault(req.owner, req.peer, req.tag)
        payload = None
        if req.buffer is not None:
            payload = req.buffer.read(req.disp, req.nbytes)
        corrupt = bool(decision.corrupt)
        if corrupt:
            self.counters.corrupt_injected += 1
            self._log_fault("corrupt", req.owner, req.peer, req.tag, "payload bit-flip")
        if self.trace.enabled:
            self.trace.emit(
                self.engine.now,
                "send_launch",
                src=req.owner,
                dst=req.peer,
                tag=req.tag,
                nbytes=req.nbytes,
                protocol="reliable",
                seq=state.seq,
                attempt=state.attempts,
                intra=plan.intra_node,
            )
        latency = plan.latency
        if decision is not FaultDecision.CLEAN:
            latency = latency * decision.latency_factor + decision.extra_latency
        xfer_s = self._xfer_seconds(plan, req.nbytes)
        duration = latency + xfer_s
        if decision.drop:
            cause = decision.cause or "drop"
            state.last_cause = cause
            self.counters.drops_injected += 1
            self._log_fault("drop", req.owner, req.peer, req.tag, cause)
            self.trace.emit(
                self.engine.now,
                "send_drop",
                src=req.owner,
                dst=req.peer,
                tag=req.tag,
                nbytes=req.nbytes,
                seq=state.seq,
                cause=cause,
            )
        else:
            packet = _Packet(req, payload, state.seq, corrupt)
            self.engine.post(duration, self._packet_arrive, packet)
            if decision.duplicate:
                # The fabric delivers a second copy a little later; the
                # receiver's dedup machinery must absorb it.
                self.counters.dup_injected += 1
                self._log_fault(
                    "duplicate", req.owner, req.peer, req.tag, "fabric duplicate"
                )
                twin = _Packet(req, payload, state.seq, corrupt)
                self.engine.post(duration * 1.5, self._packet_arrive, twin)
        timeout = self._timeout_seconds(plan, xfer_s, state.attempts)
        state.timer = self.engine.schedule(timeout, self._on_timeout, state)

    def _on_timeout(self, state: _PendingSend) -> None:
        if state.acked:  # late timer that lost a cancellation race
            return
        req = state.req
        self.counters.timeouts += 1
        if state.attempts > MAX_RETRIES:
            raise TransportExhaustedError(
                req.owner,
                req.peer,
                req.tag,
                attempts=state.attempts,
                nbytes=req.nbytes,
                cause=state.last_cause,
            )
        self.counters.record_retransmission(req.nbytes)
        self.trace.emit(
            self.engine.now,
            "retransmit",
            src=req.owner,
            dst=req.peer,
            tag=req.tag,
            nbytes=req.nbytes,
            seq=state.seq,
            attempt=state.attempts + 1,
        )
        self._transmit(state)

    # -- receive path ---------------------------------------------------
    def _packet_arrive(self, packet: _Packet) -> None:
        req = packet.send_req
        src, dst = req.owner, req.peer
        if packet.corrupt:
            # Checksum failure: discard silently — no ACK, so the
            # sender's timer turns the corruption into a retransmission.
            self.counters.corrupt_dropped += 1
            self.trace.emit(
                self.engine.now,
                "corrupt_drop",
                src=src,
                dst=dst,
                tag=req.tag,
                seq=packet.seq,
            )
            return
        channel = (src, dst)
        expected = self._next_seq.get(channel, 0)
        if packet.seq < expected:
            # Already delivered: a duplicate or a retransmission whose
            # ACK was lost. Suppress, but re-ACK so the sender stops.
            self.counters.dup_suppressed += 1
            self.trace.emit(
                self.engine.now,
                "dup_suppress",
                src=src,
                dst=dst,
                tag=req.tag,
                seq=packet.seq,
            )
            self._send_ack(src, dst, packet.seq)
            return
        held = self._ooo.setdefault(channel, {})
        if packet.seq in held:
            self.counters.dup_suppressed += 1
            self._send_ack(src, dst, packet.seq)
            return
        held[packet.seq] = packet
        self._send_ack(src, dst, packet.seq)
        # In-order reassembly: drain every consecutively-numbered packet
        # so deliveries on a channel always happen in send order.
        while expected in held:
            self._deliver_packet(held.pop(expected))
            expected += 1
        self._next_seq[channel] = expected

    def _deliver_packet(self, packet: _Packet) -> None:
        req = packet.send_req
        delivery = _Delivery(req, packet.payload, rendezvous=False)
        delivery.flow_done = True  # payload travelled with the packet
        env = Envelope(req.owner, req.tag, req.nbytes, delivery, packet.seq)
        self._envelope_arrive(req.peer, env)

    # -- ACK path -------------------------------------------------------
    def _send_ack(self, src: int, dst: int, seq: int) -> None:
        """ACK travels the reverse link and is itself fault-prone."""
        self.counters.record_ack(ACK_NBYTES)
        decision = self._decide_fault(dst, src, ACK_TAG)
        if decision.drop or decision.corrupt:
            # A mangled control packet is a lost control packet.
            self.counters.drops_injected += 1
            self._log_fault(
                "drop", dst, src, ACK_TAG, decision.cause or "ack corrupted"
            )
            return
        plan = self.machine.transfer_plan(dst, src)
        latency = plan.latency
        if decision is not FaultDecision.CLEAN:
            latency = latency * decision.latency_factor + decision.extra_latency
        duration = latency + self._xfer_seconds(plan, ACK_NBYTES)
        self.engine.post(duration, self._ack_arrive, src, dst, seq)

    def _ack_arrive(self, src: int, dst: int, seq: int) -> None:
        state = self._pending.pop((src, dst, seq), None)
        if state is None or state.acked:
            return  # duplicate ACK for an already-completed send
        state.acked = True
        if state.timer is not None:
            # The timer's args hold the state: drop the pair's link so
            # both are freed without the cycle collector.
            state.timer.cancel()
            state.timer = None
        if self.trace.enabled:
            self.trace.emit(
                self.engine.now,
                "ack",
                src=src,
                dst=dst,
                tag=state.req.tag,
                seq=seq,
                attempts=state.attempts,
            )
        state.req.finish()
