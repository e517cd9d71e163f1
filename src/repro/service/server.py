"""The persistent simulation server behind ``repro serve``.

A :class:`SimulationServer` owns

* a **warm worker pool** — a :class:`~concurrent.futures.ProcessPoolExecutor`
  whose processes live for the server's lifetime, so the process-wide
  memos (extracted schedules, compiled replays, the shared water-filling
  solve memo) accumulate across jobs instead of dying with every CLI
  invocation;
* a **batched job queue** — sweep submissions are grouped by
  ``(algorithm, nranks)`` (the :func:`~repro.core.executor.group_points`
  batching the in-process pool also uses) and each batch runs start to
  finish inside one worker, keeping its memos coherent;
* a **sharded result cache** — one :class:`~repro.core.diskcache.DiskCache`
  consulted before any simulation and populated afterwards, shared by
  every client of this server (appends are flock-protected, so external
  processes may write the same directory concurrently);
* a **streaming response path** — records are written back the moment
  their batch completes, tagged with the submission index so clients
  reassemble deterministic order.

The TCP listener is threaded (one thread per connection, IO-bound); all
simulation happens in the pool. The service runs sweep points only; the
analysis gates run in the CLI's own process.

The pool itself is a :class:`~repro.service.resilience.ResilientPool`
(docs/robustness.md): a SIGKILL'd worker no longer wedges the server —
the pool is respawned, only the in-flight batches are re-dispatched,
points that repeatedly kill workers are quarantined with a typed
``PoisonPointError``, and sweeps may carry a wall-clock ``deadline_s``
that cancels what cannot finish in time.
"""

from __future__ import annotations

import os
import socketserver
import threading
import time
from typing import Optional

from ..core.diskcache import DiskCache, cache_key
from ..core.executor import _simulate_batch, _warm_worker, group_points, resolve_jobs
from . import protocol
from .resilience import ResilientPool

__all__ = ["SimulationServer"]


class _Handler(socketserver.StreamRequestHandler):
    """One connection = one request (ping/stats/sweep/shutdown)."""

    server: "_TCPServer"

    def handle(self) -> None:
        sim = self.server.sim
        try:
            msg = protocol.read_message(self.rfile)
        except Exception as exc:  # noqa: BLE001 - protocol error, report+drop
            protocol.write_message(
                self.wfile, {"type": "error", "index": -1, "error_type":
                             type(exc).__name__, "message": str(exc),
                             "traceback": ""}
            )
            return
        if msg is None:
            return
        op = msg.get("op")
        try:
            if op == "ping":
                protocol.write_message(self.wfile, sim.describe_pong())
            elif op == "stats":
                protocol.write_message(self.wfile, sim.describe_stats())
            elif op == "sweep":
                sim.handle_sweep(msg, self.wfile)
            elif op == "shutdown":
                protocol.write_message(self.wfile, {"type": "bye"})
                sim.request_shutdown()
            else:
                protocol.write_message(
                    self.wfile,
                    {"type": "error", "index": -1, "error_type":
                     "ConfigurationError", "message": f"unknown op {op!r}",
                     "traceback": ""},
                )
        except BrokenPipeError:  # client went away mid-stream
            pass


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    sim: "SimulationServer"


class SimulationServer:
    """Long-running warm-pool simulation service on a local TCP port."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: Optional[int] = 0,
        cache: Optional[DiskCache] = None,
        state_file=None,
    ):
        self.host = host
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.state_file = protocol.state_file_path(state_file)
        self._tcp = _TCPServer((host, port), _Handler, bind_and_activate=True)
        self._tcp.sim = self
        self.port = self._tcp.server_address[1]
        self._pool = ResilientPool(jobs=self.jobs, initializer=_warm_worker)
        self._lock = threading.Lock()  # pool submissions + counters
        self._started = time.time()  # det: allow — uptime telemetry only
        self._jobs_served = 0
        self._points_served = 0
        self._shutdown_requested = threading.Event()
        protocol.write_state(self.state_file, self.host, self.port, os.getpid())

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`request_shutdown`."""
        try:
            self._tcp.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def request_shutdown(self) -> None:
        """Stop the accept loop (callable from handler threads)."""
        if not self._shutdown_requested.is_set():
            self._shutdown_requested.set()
            threading.Thread(target=self._tcp.shutdown, daemon=True).start()

    def close(self) -> None:
        """Drain the pool, stop listening and withdraw the state file."""
        self._shutdown_requested.set()
        self._tcp.server_close()
        self._pool.shutdown(wait=True)  # ResilientPool: drains the live pool
        try:
            if self.state_file.exists():
                self.state_file.unlink()
        except OSError:  # pragma: no cover - state dir vanished
            pass

    def __enter__(self) -> "SimulationServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -------------------------------------------------
    def describe_pong(self) -> dict:
        return {
            "type": "pong",
            "pid": os.getpid(),
            "workers": self.jobs,
            "version": protocol.PROTOCOL_VERSION,
        }

    def describe_stats(self) -> dict:
        cache_stats = self.cache.stats() if self.cache is not None else None
        return {
            "type": "stats",
            "pid": os.getpid(),
            "workers": self.jobs,
            "uptime_s": time.time() - self._started,  # det: allow — telemetry
            "jobs": self._jobs_served,
            "points": self._points_served,
            "respawns": self._pool.respawns_total,
            "quarantined": len(self._pool.quarantined),
            "cache": None
            if cache_stats is None
            else {
                "entries": cache_stats.entries,
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "stores": cache_stats.stores,
            },
        }

    # -- job handling ----------------------------------------------------
    def handle_sweep(self, msg: dict, wfile) -> None:
        """Run one sweep job: cache pass, batched fan-out, streaming.

        Fan-out goes through the :class:`ResilientPool`: worker crashes
        respawn the pool and re-dispatch only the in-flight batches,
        repeatedly-crashing points stream back as typed
        ``PoisonPointError`` outcomes, and an optional ``deadline_s``
        cancels whatever cannot finish in time (typed
        ``ServiceDeadlineError`` per unfinished point).
        """
        spec = protocol.decode_spec(msg["spec"])
        points = protocol.decode_points(msg["points"])
        root = int(msg.get("root", 0))
        placement = msg.get("placement", "blocked")
        faults = protocol.decode_faults(msg.get("faults"))
        reliable = protocol.decode_reliable(msg.get("reliable"))
        use_cache = bool(msg.get("cache", True)) and self.cache is not None
        deadline_s = msg.get("deadline_s")
        deadline_s = None if deadline_s is None else float(deadline_s)
        job = str(msg.get("job", ""))

        sent = 0
        cold = []
        keys = {}
        for i, point in enumerate(points):
            if use_cache:
                keys[i] = cache_key(
                    spec, point, root=root, placement=placement,
                    faults=faults, reliable=reliable,
                )
                rec = self.cache.get(keys[i])
                if rec is not None:
                    protocol.write_message(
                        wfile,
                        {"type": "result", "index": i,
                         "record": protocol.encode_record(rec)},
                    )
                    sent += 1
                    continue
            cold.append(i)

        if cold:
            tasks = {
                i: (spec, points[i], root, placement, faults, reliable)
                for i in cold
            }
            batches = group_points(points, cold, self.jobs)
            fault_digest = faults.digest() if faults is not None else ""

            def poison_key(i: int) -> str:
                p = points[i]
                return (
                    f"{p.algorithm}:{p.nranks}:{p.nbytes}:{root}:"
                    f"{placement}:{fault_digest}"
                )

            for i, outcome in self._pool.run(
                _simulate_batch,
                batches,
                tasks,
                deadline_s=deadline_s,
                poison_key=poison_key,
            ):
                if outcome[0] == "ok":
                    rec = outcome[1]
                    if use_cache:
                        self.cache.put(keys[i], rec)
                    protocol.write_message(
                        wfile,
                        {"type": "result", "index": i,
                         "record": protocol.encode_record(rec)},
                    )
                else:
                    _, error_type, message, tb = outcome
                    protocol.write_message(
                        wfile,
                        {"type": "error", "index": i,
                         "error_type": error_type, "message": message,
                         "traceback": tb},
                    )
                sent += 1

        with self._lock:
            self._jobs_served += 1
            self._points_served += len(points)
        protocol.write_message(
            wfile, {"type": "done", "count": sent, "job": job}
        )
