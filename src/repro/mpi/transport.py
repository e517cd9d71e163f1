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

Every message travels at its path's latency. Transfers are counted
(:class:`~repro.mpi.counters.TrafficCounters`) at launch time, once per
message, tagged intra- or inter-node.

This transport injects no faults: a run with a non-zero
:class:`~repro.sim.faults.FaultPlan` runs on the reliability layer
(:class:`repro.mpi.reliable.ReliableTransport`) instead.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import TruncationError
from ..machine import Machine
from ..sim import Engine, FlowNetwork, Trace
from .counters import TrafficCounters
from .matching import Envelope, MatchingEngine
from .request import Request, Status

__all__ = ["Transport"]


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
    ):
        self.engine = engine
        self.flownet = flownet
        self.machine = machine
        self.trace = trace
        self.counters = counters
        self.matching: List[MatchingEngine] = [
            MatchingEngine(r) for r in range(machine.nranks)
        ]
        self._seq = 0
        # Non-overtaking guarantee: each envelope on a (src, dst) channel
        # arrives strictly after the one before it, even when both were
        # launched at one timestamp. Tracks the latest scheduled arrival
        # per channel.
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

    # -- send path -----------------------------------------------------------
    def _launch_send(self, req: Request) -> None:
        plan = self.machine.transfer_plan(req.owner, req.peer)
        eager = req.nbytes <= self.machine.spec.eager_threshold
        payload = None
        if req.buffer is not None:
            payload = req.buffer.read(req.disp, req.nbytes)
        self.counters.record(req.owner, req.peer, req.nbytes, plan.intra_node)
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
        channel = (req.owner, req.peer)
        arrival = self.engine.now + plan.latency
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
            cts = self.machine.spec.rendezvous_rtt * plan.latency
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
