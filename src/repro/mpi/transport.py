"""The point-to-point transport: protocols, flows, delivery.

Maps each send/receive request pair onto the machine's fluid-flow model
with MPICH-style protocol selection:

Eager (``nbytes <= spec.eager_threshold``)
    The payload flow starts as soon as the sender launches the message —
    *whether or not a receive is posted* — and the send completes when
    the flow drains (serialised injection, the LogGP gap; an eager send
    never waits for the receiver to post, but back-to-back sends cannot
    outrun the sender's own injection capacity). The envelope reaches
    the receiver after the path latency; the receive completes when both
    the envelope has matched and the payload flow has drained.

Rendezvous (larger messages)
    The sender launches a ready-to-send envelope and blocks. When the
    envelope matches a posted receive, a clear-to-send travels back
    (``rendezvous_rtt x latency``) and only then does the payload flow
    start. Send and receive both complete when the flow drains. This is
    what synchronises ring steps for the paper's large-message regime.

Transfers are counted (:class:`~repro.mpi.counters.TrafficCounters`) at
launch time, once per message, tagged intra- or inter-node.

Fault injection (:mod:`repro.sim.faults`) hooks in at launch: when a
:class:`~repro.sim.faults.FaultPlan` is attached, every send consults
``plan.decide(src, dst, tag, op_index)``. Dropped messages never produce
an envelope (an eager sender completes obliviously; a rendezvous sender
blocks until the run deadlocks — diagnosable via :meth:`fault_summary`),
corrupted payloads are bit-flipped in flight, and latency effects (rank
slowdown, spikes, per-rule surcharges) stretch the envelope delay.
Duplicates need receiver-side suppression and are only injected by the
reliability layer (:class:`repro.mpi.reliable.ReliableTransport`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import TruncationError
from ..machine import Machine
from ..sim import Engine, FlowNetwork, RngStreams, Trace
from ..sim.faults import FaultDecision, FaultPlan, InjectedFault
from .counters import TrafficCounters
from .matching import Envelope, MatchingEngine
from .request import Request, Status

__all__ = ["Transport"]

#: Keep at most this many injected-fault audit records per run.
_FAULT_LOG_CAP = 512


class _Delivery:
    """Join point between an envelope/flow and its matching receive."""

    __slots__ = ("send_req", "payload", "flow_done", "recv_req", "rendezvous")

    def __init__(self, send_req: Request, payload, rendezvous: bool):
        self.send_req = send_req
        self.payload = payload
        self.flow_done = False
        self.recv_req: Optional[Request] = None
        self.rendezvous = rendezvous


class Transport:
    """Protocol engine binding requests to machine flows."""

    def __init__(
        self,
        engine: Engine,
        flownet: FlowNetwork,
        machine: Machine,
        trace: Trace,
        counters: TrafficCounters,
        rng: Optional[RngStreams] = None,
        faults: Optional[FaultPlan] = None,
    ):
        self.engine = engine
        self.flownet = flownet
        self.machine = machine
        self.trace = trace
        self.counters = counters
        self.rng = rng if rng is not None else RngStreams(machine.spec.seed)
        self.faults = faults
        self.fault_log: List[InjectedFault] = []
        self._op_index: Dict[Tuple[int, int], int] = {}  # per-link xmit counter
        self.matching: List[MatchingEngine] = [
            MatchingEngine(r) for r in range(machine.nranks)
        ]
        self._seq = 0
        # Non-overtaking guarantee: envelopes on one (src, dst) channel
        # arrive in send order even when jitter or queueing delays vary
        # per message. Tracks the latest scheduled arrival per channel.
        self._env_clock = {}

    # -- public entry points -----------------------------------------------
    def post_send(self, req: Request) -> None:
        """Start a send request; completion is reported via callbacks."""
        req.seq = self._seq
        self._seq += 1
        # Per-message records check ``enabled`` first: building the
        # keyword dict costs about a microsecond even for a NullTrace.
        if self.trace.enabled:
            self.trace.emit(
                self.engine.now,
                "send_post",
                src=req.owner,
                dst=req.peer,
                tag=req.tag,
                nbytes=req.nbytes,
            )
        overhead = self.machine.spec.send_overhead
        if overhead > 0:
            self.engine.post(overhead, self._launch_send, req)
        else:
            self._launch_send(req)

    def post_recv(self, req: Request) -> None:
        """Post a receive; matching may complete it now or much later."""
        if self.trace.enabled:
            self.trace.emit(
                self.engine.now,
                "recv_post",
                dst=req.owner,
                src=req.peer,
                tag=req.tag,
                nbytes=req.nbytes,
            )
        env = self.matching[req.owner].post_recv(req)
        if env is not None:
            self._matched(env, req)

    # -- fault injection ---------------------------------------------------
    def _decide_fault(self, src: int, dst: int, tag: int) -> FaultDecision:
        """Evaluate the fault plan for the next transmission on a link.

        Advances the per-link op-index even for clean decisions, so
        predicates stay addressable by "the k-th message on this link"
        regardless of what earlier rules did.
        """
        if self.faults is None:
            return FaultDecision.CLEAN
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

    def _corrupt_payload(self, payload):
        """Bit-flip an in-flight payload copy (real buffers only; phantom
        payloads are size-only, corruption there is flag-carried)."""
        if payload is not None and hasattr(payload, "size") and payload.size:
            payload = payload.copy()
            payload[0] ^= 0xFF
        return payload

    # -- send path -----------------------------------------------------------
    def _latency(self, plan) -> float:
        sigma = self.machine.spec.jitter_sigma
        if sigma > 0.0:
            return plan.latency * self.rng.jitter_factor("latency", sigma)
        return plan.latency

    def _queueing_delay(self, plan, nbytes: int) -> float:
        """Deterministic congestion surcharge (spec.queueing_kappa).

        Extra latency proportional to the message's serialisation time
        on its bottleneck resource times the flow count already queued
        on the path's most-loaded resource — the stand-in for the
        congestion-variance tails documented in docs/model.md.
        """
        kappa = self.machine.spec.queueing_kappa
        if kappa <= 0.0 or nbytes == 0 or not plan.resources:
            return 0.0
        load = max(res.load for res in plan.resources)
        if load == 0:
            return 0.0
        bottleneck = min(res.capacity for res in plan.resources)
        return kappa * load * nbytes / bottleneck

    def _launch_send(self, req: Request) -> None:
        plan = self.machine.transfer_plan(req.owner, req.peer)
        spec = self.machine.spec
        eager = req.nbytes <= spec.eager_threshold
        payload = None
        if req.buffer is not None:
            payload = req.buffer.read(req.disp, req.nbytes)
        self.counters.record(req.owner, req.peer, req.nbytes, plan.intra_node)
        decision = self._decide_fault(req.owner, req.peer, req.tag)
        if decision.drop:
            self.counters.drops_injected += 1
            cause = decision.cause or "drop"
            self._log_fault("drop", req.owner, req.peer, req.tag, cause)
            self.trace.emit(
                self.engine.now,
                "send_drop",
                src=req.owner,
                dst=req.peer,
                tag=req.tag,
                nbytes=req.nbytes,
                cause=cause,
            )
            if eager:
                # Fire-and-forget: an eager sender never learns the fabric
                # ate its message; the send itself completes as usual.
                req.finish()
            # A rendezvous sender blocks forever (no envelope, no CTS) —
            # exactly the deadlock fault_summary() makes diagnosable.
            return
        if decision.corrupt:
            self.counters.corrupt_injected += 1
            self._log_fault("corrupt", req.owner, req.peer, req.tag, "payload bit-flip")
            payload = self._corrupt_payload(payload)
        if self.trace.enabled:
            self.trace.emit(
                self.engine.now,
                "send_launch",
                src=req.owner,
                dst=req.peer,
                tag=req.tag,
                nbytes=req.nbytes,
                protocol="eager" if eager else "rendezvous",
                intra=plan.intra_node,
            )
        delivery = _Delivery(req, payload, rendezvous=not eager)
        env = Envelope(req.owner, req.tag, req.nbytes, delivery, req.seq)
        latency = self._latency(plan) + self._queueing_delay(plan, req.nbytes)
        if decision is not FaultDecision.CLEAN:
            latency = latency * decision.latency_factor + decision.extra_latency
        channel = (req.owner, req.peer)
        arrival = self.engine.now + latency
        floor = self._env_clock.get(channel)
        if floor is not None and arrival <= floor:
            arrival = floor * (1 + 1e-12) + 1e-15
        self._env_clock[channel] = arrival
        latency = arrival - self.engine.now
        if eager:
            # Payload flow starts now — with or without a posted receive —
            # and the envelope arrives after the path latency. The send
            # completes when the flow drains: the sender's injection is
            # serialised (LogGP-style gap), it just never waits for the
            # receiver to post.
            self.flownet.add_flow(
                req.nbytes,
                plan.resources,
                rate_cap=plan.rate_cap,
                on_complete=lambda flow, d=delivery: self._flow_done(d),
                meta=("msg", req.owner, req.peer, req.tag),
            )
        # A rendezvous send launches only the envelope for now.
        self.engine.post(latency, self._envelope_arrive, req.peer, env)

    # -- receive path -----------------------------------------------------
    def _envelope_arrive(self, dst: int, env: Envelope) -> None:
        if self.trace.enabled:
            self.trace.emit(
                self.engine.now,
                "envelope",
                src=env.src,
                dst=dst,
                tag=env.tag,
                nbytes=env.nbytes,
            )
        recv_req = self.matching[dst].arrive(env)
        if recv_req is not None:
            self._matched(env, recv_req)

    def _matched(self, env: Envelope, recv_req: Request) -> None:
        delivery: _Delivery = env.send_req
        if env.nbytes > recv_req.nbytes:
            raise TruncationError(
                f"message of {env.nbytes} bytes from rank {env.src} truncates "
                f"receive of {recv_req.nbytes} bytes on rank {recv_req.owner}"
            )
        delivery.recv_req = recv_req
        if self.trace.enabled:
            self.trace.emit(
                self.engine.now,
                "match",
                src=env.src,
                dst=recv_req.owner,
                tag=env.tag,
                nbytes=env.nbytes,
            )
        if delivery.rendezvous:
            # Clear-to-send travels back, then the payload flow starts.
            plan = self.machine.transfer_plan(
                delivery.send_req.owner, delivery.send_req.peer
            )
            cts = self.machine.spec.rendezvous_rtt * self._latency(plan)
            self.engine.post(cts, self._start_rendezvous_flow, delivery, plan)
        elif delivery.flow_done:
            self._deliver(delivery)
        # else: eager flow still draining; _flow_done will deliver.

    def _start_rendezvous_flow(self, delivery: _Delivery, plan) -> None:
        self.flownet.add_flow(
            delivery.send_req.nbytes,
            plan.resources,
            rate_cap=plan.rate_cap,
            on_complete=lambda flow, d=delivery: self._flow_done(d),
            meta=(
                "msg",
                delivery.send_req.owner,
                delivery.send_req.peer,
                delivery.send_req.tag,
            ),
        )

    def _flow_done(self, delivery: _Delivery) -> None:
        delivery.flow_done = True
        delivery.send_req.finish()
        if delivery.recv_req is not None:
            self._deliver(delivery)

    def _deliver(self, delivery: _Delivery) -> None:
        overhead = self.machine.spec.recv_overhead
        if overhead > 0:
            self.engine.post(overhead, self._complete_recv, delivery)
        else:
            self._complete_recv(delivery)

    def _complete_recv(self, delivery: _Delivery) -> None:
        recv_req = delivery.recv_req
        send_req = delivery.send_req
        if recv_req.buffer is not None and delivery.payload is not None:
            recv_req.buffer.write(recv_req.disp, delivery.payload)
        status = Status(send_req.owner, send_req.tag, send_req.nbytes, send_req.chunks)
        if self.trace.enabled:
            self.trace.emit(
                self.engine.now,
                "recv_complete",
                src=send_req.owner,
                dst=recv_req.owner,
                tag=send_req.tag,
                nbytes=send_req.nbytes,
            )
        recv_req.finish(status)

    # -- diagnostics ------------------------------------------------------------
    def blocked_summary(self) -> List[str]:
        """Matching-engine dumps for ranks with pending state."""
        out = []
        for eng in self.matching:
            if eng.pending_recvs or eng.pending_unexpected:
                out.append(eng.describe_blockage())
        return out

    def fault_summary(self) -> List[str]:
        """Audit lines for every fault actually injected this run.

        Appended to deadlock reports so a chaos-run hang names the
        suppressed message instead of reading like a schedule bug.
        """
        out = [f.describe() for f in self.fault_log]
        if len(self.fault_log) >= _FAULT_LOG_CAP:
            out.append(f"... (fault log capped at {_FAULT_LOG_CAP} records)")
        return out
