"""Wire protocol of the simulation service: JSON lines over a socket.

One connection carries one request and its (possibly streamed) response.
Every message is a single JSON object on its own line — human-debuggable
with ``nc localhost <port>`` and immune to partial-read framing bugs.

Requests (``op`` selects the handler):

* ``{"op": "ping"}`` → ``{"type": "pong", "pid": ..., "workers": ...,
  "version": ...}``
* ``{"op": "stats"}`` → ``{"type": "stats", ...}`` (jobs/points served,
  cache stats, uptime)
* ``{"op": "sweep", "spec": {...}, "points": [[alg, nranks, nbytes],
  ...], "root": 0, "placement": "blocked", "faults": null,
  "reliable": null, "cache": true}`` → a stream of
  ``{"type": "result", "index": i, "record": {...}}`` /
  ``{"type": "error", "index": i, "error_type": ..., "message": ...,
  "traceback": ...}`` messages (one per point, completion order)
  terminated by ``{"type": "done", "count": N}``
* ``{"op": "shutdown"}`` → ``{"type": "bye"}`` and the server drains
  its pool and exits.

Floats survive the trip exactly: Python's ``json`` emits shortest
round-trip ``repr`` floats, so a decoded
:class:`~repro.core.report.RunRecord` is equal — field for field,
bit for bit — to the record the worker produced. The service smoke
tests assert exactly that against the serial path.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
from pathlib import Path
from typing import IO, Iterable, List, Optional, Tuple

from ..core.diskcache import default_cache_dir
from ..core.report import RunRecord
from ..core.sweep import SweepPoint
from ..errors import ConfigurationError
from ..machine import MachineSpec
from ..mpi.reliable import ReliableConfig
from ..sim.faults import FaultPlan

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_STATE_FILE",
    "read_message",
    "write_message",
    "encode_spec",
    "decode_spec",
    "encode_record",
    "decode_record",
    "encode_points",
    "decode_points",
    "encode_faults",
    "decode_faults",
    "encode_reliable",
    "decode_reliable",
    "state_file_path",
    "read_state",
    "read_state_full",
    "write_state",
    "pid_alive",
    "locate_live_server",
    "open_connection",
]

PROTOCOL_VERSION = 1

# Where a server advertises itself for auto-discovery (REPRO_SERVE=auto
# or --serve with no address): a JSON file with host/port/pid.
DEFAULT_STATE_FILE = "service.json"


# -- framing ----------------------------------------------------------
def write_message(stream: IO, obj: dict) -> None:
    """Serialise one protocol message (newline-delimited JSON)."""
    stream.write(
        (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")
    )
    stream.flush()


def read_message(stream: IO) -> Optional[dict]:
    """Read one message; ``None`` on a cleanly closed connection."""
    line = stream.readline()
    if not line:
        return None
    try:
        obj = json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"malformed service message: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigurationError(
            f"malformed service message: expected object, got {type(obj).__name__}"
        )
    return obj


# -- payload codecs ---------------------------------------------------
def encode_spec(spec: MachineSpec) -> dict:
    return dataclasses.asdict(spec)


def decode_spec(data: dict) -> MachineSpec:
    return MachineSpec(**data)


def encode_record(rec: RunRecord) -> dict:
    return dataclasses.asdict(rec)


def decode_record(data: dict) -> RunRecord:
    return RunRecord(**data)


def encode_points(points: Iterable) -> List[list]:
    return [[p.algorithm, p.nranks, p.nbytes] for p in points]


def decode_points(data: Iterable) -> List[SweepPoint]:
    return [SweepPoint(str(a), int(p), int(n)) for a, p, n in data]


def encode_faults(faults: Optional[FaultPlan]) -> Optional[dict]:
    return None if faults is None else faults.to_dict()


def decode_faults(data: Optional[dict]) -> Optional[FaultPlan]:
    return None if data is None else FaultPlan.from_dict(data)


def encode_reliable(reliable) -> Optional[dict]:
    """``None``/bool/:class:`ReliableConfig` → wire form."""
    if reliable is None:
        return None
    if isinstance(reliable, bool):
        return {"kind": "bool", "value": reliable}
    if isinstance(reliable, ReliableConfig):
        return {"kind": "config", "value": dataclasses.asdict(reliable)}
    raise ConfigurationError(
        f"reliable must be None, bool or ReliableConfig for service jobs, "
        f"got {type(reliable).__name__}"
    )


def decode_reliable(data: Optional[dict]):
    if data is None:
        return None
    if data.get("kind") == "bool":
        return bool(data["value"])
    if data.get("kind") == "config":
        return ReliableConfig(**data["value"])
    raise ConfigurationError(f"malformed reliable payload: {data!r}")


# -- discovery state file ---------------------------------------------
def state_file_path(path=None) -> Path:
    """Resolve the discovery state file (default: under the cache dir)."""
    if path:
        return Path(path).expanduser()
    return default_cache_dir() / DEFAULT_STATE_FILE


def write_state(path: Path, host: str, port: int, pid: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"host": host, "port": port, "pid": pid}) + "\n",
        encoding="utf-8",
    )


def read_state(path: Path) -> Optional[Tuple[str, int]]:
    """(host, port) from a state file, or ``None`` if unusable."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return str(data["host"]), int(data["port"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def read_state_full(path: Path) -> Optional[Tuple[str, int, int]]:
    """(host, port, pid) from a state file, or ``None`` if unusable.

    ``pid`` is 0 when the file predates pid recording (or recorded
    garbage) — callers must treat 0 as "no liveness information".
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        host, port = str(data["host"]), int(data["port"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    try:
        pid = int(data.get("pid", 0))
    except (ValueError, TypeError):
        pid = 0
    return host, port, max(0, pid)


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a *local* server pid.

    ``pid <= 0`` carries no information and reads as alive (never signal
    pid 0 — that is our own process group). A pid we may not signal
    (EPERM) exists, hence alive.
    """
    if pid <= 0:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def locate_live_server(path: Path) -> Optional[Tuple[str, int]]:
    """(host, port) of the advertised server, validating liveness.

    A SIGKILL'd server cannot withdraw its state file; discovery that
    trusted the file would then connect (or hang) on a dead address.
    This reads the state file, checks the recorded pid is still alive,
    and *removes* the stale file when it is not — so the next discovery
    does not trip over it either. Returns ``None`` when no live server
    is advertised.
    """
    state = read_state_full(path)
    if state is None:
        return None
    host, port, pid = state
    if not pid_alive(pid):
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced with another cleaner
            pass
        return None
    return host, port


def open_connection(host: str, port: int, timeout: Optional[float]) -> socket.socket:
    """TCP connect helper shared by client and ``serve --stop``."""
    return socket.create_connection((host, port), timeout=timeout)
