"""Thin client for the persistent simulation service.

:class:`ServiceClient` turns a live ``repro serve`` instance into a
drop-in replacement for in-process simulation: :meth:`ServiceClient.sweep`
streams ``(index, outcome)`` pairs exactly shaped like the executor's
worker outcomes, so :class:`~repro.core.executor.SweepExecutor` treats a
server and a local pool identically.

Discovery policy (:func:`resolve_address` / :func:`connect_or_none`):

======================  =========================  =====================
``serve`` argument       where the address comes    when nothing answers
                         from
======================  =========================  =====================
``False``                —                          never connects
``None`` (default)       ``REPRO_SERVE`` env var    silent fallback to
                         (unset/``0``/``off`` →     the in-process path
                         never connects)
``True``/``"auto"``      state file under the       silent fallback
                         cache dir
``"host:port"``          the literal address        raises
                                                    :class:`~repro.errors.\
ServiceUnavailableError`
``"/path/to/state"``     that state file            raises
======================  =========================  =====================

so exported pipelines can set ``REPRO_SERVE=auto`` and keep working with
no server up, while an explicit ``--serve ADDR`` fails loudly instead of
silently simulating in-process. State-file discovery validates the
recorded server pid and deletes stale files (a SIGKILL'd server cannot
withdraw its own advertisement), so auto mode never connects to a dead
address.

Every RPC carries a default deadline (:func:`default_timeout`,
env-overridable via ``REPRO_SERVE_TIMEOUT``; ``0``/``off`` disables), so
a hung server fails a sweep with a typed error instead of blocking it
forever. :meth:`ServiceClient.sweep` additionally resumes: a stream cut
mid-job (server restart, severed socket) is retried up to
``REPRO_SERVE_RETRIES`` times, re-requesting *only* the points whose
outcomes have not been delivered, under the same content-digest job id
— resubmission is idempotent because completed points are answered from
the server's cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple

from ..errors import ServiceError, ServiceUnavailableError
from . import protocol

__all__ = [
    "ServiceClient",
    "ResolvedService",
    "resolve_address",
    "connect_or_none",
    "default_timeout",
    "default_retries",
    "job_digest",
    "SERVE_ENV",
    "TIMEOUT_ENV",
    "RETRY_ENV",
]

SERVE_ENV = "REPRO_SERVE"

#: Default wall-clock deadline (seconds) for every RPC's socket
#: operations. ``0``/``off`` disables deadlines entirely.
TIMEOUT_ENV = "REPRO_SERVE_TIMEOUT"
DEFAULT_TIMEOUT_S = 300.0

#: How many times a cut sweep stream is resumed before giving up.
RETRY_ENV = "REPRO_SERVE_RETRIES"
DEFAULT_RETRIES = 2

# Env/flag values meaning "do not use a service" / "discover one".
_OFF_VALUES = frozenset({"", "0", "off", "no", "false", "none"})
_AUTO_VALUES = frozenset({"1", "auto", "on", "true"})

# How long a discovery ping may take before we declare the server absent.
PING_TIMEOUT_S = 2.0

# Sentinel: distinguishes "caller said no timeout" (None) from "caller
# said nothing" (fall back to the env-resolved default).
_UNSET = object()


def default_timeout() -> Optional[float]:
    """The env-resolved RPC deadline: seconds, or ``None`` for none."""
    raw = os.environ.get(TIMEOUT_ENV, "").strip()
    if not raw:
        return DEFAULT_TIMEOUT_S
    if raw.lower() in _OFF_VALUES:
        return None
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_TIMEOUT_S
    return value if value > 0 else None


def default_retries() -> int:
    """The env-resolved sweep resume budget (attempts after the first)."""
    try:
        return max(0, int(os.environ.get(RETRY_ENV, "")))
    except ValueError:
        return DEFAULT_RETRIES


def job_digest(payload: dict) -> str:
    """Content digest identifying one sweep job across resubmissions.

    A pure function of the job's full wire payload (spec, every point,
    root, placement, faults, reliability), so a resumed partial
    resubmission carries the same id as the original request.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ResolvedService:
    """Outcome of the discovery policy for one ``serve`` argument."""

    host: str
    port: int
    explicit: bool  # explicit → unreachable raises instead of falling back
    source: str  # human-readable provenance for error messages


def _parse_address(value: str, explicit: bool) -> Optional[ResolvedService]:
    """``host:port`` or a state-file path → :class:`ResolvedService`."""
    host, sep, port = value.rpartition(":")
    if sep and port.isdigit() and "/" not in port:
        return ResolvedService(host or "127.0.0.1", int(port), explicit, value)
    state = protocol.state_file_path(value)
    located = protocol.locate_live_server(state)
    if located is None:
        if explicit:
            raise ServiceUnavailableError(
                value, "no usable state file (or the advertised server is dead)"
            )
        return None
    return ResolvedService(located[0], located[1], explicit, value)


def _auto_resolve() -> Optional[ResolvedService]:
    """Default state file → address, or ``None`` when no server advertised.

    Liveness-validated: a stale advertisement from a SIGKILL'd server is
    removed and discovery reports "no server" instead of a dead address.
    """
    state = protocol.state_file_path(None)
    located = protocol.locate_live_server(state)
    if located is None:
        return None
    return ResolvedService(located[0], located[1], False, str(state))


def resolve_address(serve=None) -> Optional[ResolvedService]:
    """Apply the discovery policy; ``None`` means "stay in-process"."""
    if serve is False:
        return None
    if serve is None:
        env = os.environ.get(SERVE_ENV, "").strip()
        if env.lower() in _OFF_VALUES:
            return None
        if env.lower() in _AUTO_VALUES:
            return _auto_resolve()
        return _parse_address(env, explicit=False)
    if serve is True:
        return _auto_resolve()
    value = str(serve).strip()
    if value.lower() in _AUTO_VALUES:
        return _auto_resolve()
    if value.lower() in _OFF_VALUES:
        return None
    if isinstance(serve, Path):
        return _parse_address(str(serve), explicit=True)
    return _parse_address(value, explicit=True)


def connect_or_none(serve=None) -> Optional["ServiceClient"]:
    """A pinged :class:`ServiceClient` per the policy, or ``None``.

    Auto-discovered servers that fail the ping fall back silently
    (returns ``None``); explicitly named servers raise
    :class:`~repro.errors.ServiceUnavailableError`.
    """
    resolved = resolve_address(serve)
    if resolved is None:
        return None
    client = ServiceClient(resolved.host, resolved.port)
    try:
        client.ping(timeout=PING_TIMEOUT_S)
        return client
    except ServiceUnavailableError:
        if resolved.explicit:
            raise
        return None
    except (OSError, ServiceError) as exc:
        if resolved.explicit:
            raise ServiceUnavailableError(resolved.source, str(exc)) from exc
        return None


class ServiceClient:
    """One simulation server, addressed by host and port.

    Connections are per-request (the protocol is one request, one
    response stream, close), so a client object is cheap, reusable and
    safe to keep around across many sweeps.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # The executor drives clients through a ``with`` block; per-request
    # connections mean there is nothing to tear down.
    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """No persistent connection to close; kept for symmetry."""

    # -- plumbing ------------------------------------------------------
    def _request(self, msg: dict, timeout=_UNSET):
        """Open a connection, send *msg*, yield response messages.

        ``timeout`` bounds every socket operation (connect and each
        read). Unspecified → :func:`default_timeout`; ``None`` → no
        deadline (opt-in, not the default — a hung server must not be
        able to block a sweep forever).
        """
        if timeout is _UNSET:
            timeout = default_timeout()
        try:
            sock = protocol.open_connection(self.host, self.port, timeout)
        except OSError as exc:
            raise ServiceUnavailableError(self.address, str(exc)) from exc
        try:
            with sock, sock.makefile("rwb") as stream:
                protocol.write_message(stream, msg)
                sock.shutdown(socket.SHUT_WR)
                while True:
                    reply = protocol.read_message(stream)
                    if reply is None:
                        return
                    yield reply
        except socket.timeout as exc:
            raise ServiceError(
                f"simulation server {self.address} exceeded the "
                f"{timeout}s RPC deadline ({TIMEOUT_ENV} overrides)"
            ) from exc
        except OSError as exc:
            raise ServiceError(
                f"connection to simulation server {self.address} failed "
                f"mid-request: {exc}"
            ) from exc

    def _request_one(self, msg: dict, timeout=_UNSET) -> dict:
        for reply in self._request(msg, timeout=timeout):
            return reply
        raise ServiceError(
            f"simulation server {self.address} closed the connection "
            f"without answering {msg.get('op')!r}"
        )

    # -- operations ----------------------------------------------------
    def ping(self, timeout=_UNSET) -> dict:
        """Round-trip liveness + version check; returns the pong payload."""
        pong = self._request_one({"op": "ping"}, timeout=timeout)
        if pong.get("type") != "pong":
            raise ServiceError(
                f"unexpected ping reply from {self.address}: {pong!r}"
            )
        version = pong.get("version")
        if version != protocol.PROTOCOL_VERSION:
            raise ServiceError(
                f"simulation server {self.address} speaks protocol "
                f"{version!r}, client needs {protocol.PROTOCOL_VERSION}"
            )
        return pong

    def stats(self, timeout=_UNSET) -> dict:
        """Server-side counters (jobs/points served, cache stats, uptime)."""
        return self._request_one({"op": "stats"}, timeout=timeout)

    def sweep(
        self,
        spec,
        points: Sequence,
        root: int = 0,
        placement="blocked",
        faults=None,
        reliable=None,
        cache: bool = True,
        deadline_s: Optional[float] = None,
        timeout=_UNSET,
        retries: Optional[int] = None,
    ) -> Iterator[Tuple[int, tuple]]:
        """Stream ``(index, outcome)`` pairs for *points*, completion order.

        Outcomes mirror the executor's worker protocol:
        ``("ok", RunRecord)`` or ``("err", error_type, message, tb)``.
        Indices refer to positions in *points*. ``placement`` must be a
        named strategy (strings travel the wire; explicit node maps do
        not) — the executor only routes string placements to a server.

        Crash-safe: if the stream is cut mid-job (server restart,
        severed socket, RPC deadline), the client resumes up to
        ``retries`` times (default :func:`default_retries`),
        re-requesting **only** the points whose outcomes have not been
        delivered yet. Every (re)submission carries the same
        content-digest ``job`` id — computed over the *full* original
        payload — so the server can correlate them, and completed points
        are answered idempotently from its cache. ``deadline_s`` bounds
        the job server-side: points that cannot finish in time come back
        as typed ``ServiceDeadlineError`` outcomes. ``timeout`` bounds
        each socket operation client-side (default
        :func:`default_timeout`).
        """
        base = {
            "op": "sweep",
            "spec": protocol.encode_spec(spec),
            "root": int(root),
            "placement": placement,
            "faults": protocol.encode_faults(faults),
            "reliable": protocol.encode_reliable(reliable),
            "cache": bool(cache),
        }
        if deadline_s is not None:
            base["deadline_s"] = float(deadline_s)
        wire_points = protocol.encode_points(points)
        job = job_digest({**base, "points": wire_points})
        budget = default_retries() if retries is None else max(0, int(retries))

        missing = list(range(len(points)))  # original indices, undelivered
        attempts = 0
        while missing:
            sub = list(missing)  # wire index -> original index
            msg = {**base, "points": [wire_points[i] for i in sub], "job": job}
            got = set()
            try:
                for reply in self._request(msg, timeout=timeout):
                    kind = reply.get("type")
                    if kind == "result":
                        orig = sub[int(reply["index"])]
                        got.add(orig)
                        yield orig, ("ok", protocol.decode_record(reply["record"]))
                    elif kind == "error":
                        orig = sub[int(reply["index"])]
                        got.add(orig)
                        yield orig, (
                            "err",
                            str(reply.get("error_type", "ServiceError")),
                            str(reply.get("message", "")),
                            str(reply.get("traceback", "")),
                        )
                    elif kind == "done":
                        if int(reply.get("count", -1)) != len(got):
                            raise ServiceError(
                                f"simulation server {self.address} reported "
                                f"{reply.get('count')} outcome(s) but "
                                f"streamed {len(got)}"
                            )
                        break
                    else:
                        raise ServiceError(
                            f"unexpected sweep reply from {self.address}: "
                            f"{reply!r}"
                        )
                else:  # stream ended without a "done" frame
                    raise ServiceError(
                        f"simulation server {self.address} dropped the sweep "
                        f"stream after {len(got)} of {len(sub)} outcome(s)"
                    )
            except (OSError, ServiceError) as exc:
                missing = [i for i in missing if i not in got]
                attempts += 1
                if attempts > budget:
                    raise ServiceError(
                        f"sweep job {job} failed after {attempts} attempt(s) "
                        f"with {len(missing)} of {len(points)} point(s) "
                        f"undelivered: {exc}"
                    ) from exc
                # Deterministic linear backoff before resuming the rest.
                time.sleep(0.05 * attempts)  # det: allow — retry pacing
                continue
            missing = [i for i in missing if i not in got]
            if missing:  # "done" yet points absent: corrupt stream, resume
                attempts += 1
                if attempts > budget:
                    raise ServiceError(
                        f"sweep job {job} completed without outcomes for "
                        f"{len(missing)} of {len(points)} point(s)"
                    )

    def shutdown_server(self, timeout=_UNSET) -> bool:
        """Ask the server to drain its pool and exit; True on ack."""
        try:
            reply = self._request_one({"op": "shutdown"}, timeout=timeout)
        except (OSError, ServiceError):
            return False
        return reply.get("type") == "bye"
