"""End-to-end tests for the persistent simulation service.

A real :class:`SimulationServer` (TCP listener + one-process worker
pool) runs on a background thread; clients talk to it over the loopback
socket exactly as the CLI does. The core guarantee under test: records
that travelled through the service are byte-identical to records from
the plain serial path.
"""

import dataclasses
import threading

import pytest

from repro.core.api import simulate_bcast
from repro.core.diskcache import DiskCache, cache_key
from repro.core.executor import SweepExecutor
from repro.core.sweep import Sweep, SweepPoint
from repro.errors import (
    ServiceError,
    ServiceJobError,
    ServiceUnavailableError,
    SweepExecutionError,
)
from repro.machine import hornet
from repro.service import ServiceClient, SimulationServer
from repro.service.client import connect_or_none, resolve_address


def det_fields(rec):
    """Every deterministic record field (all but wall-clock time)."""
    d = dataclasses.asdict(rec)
    d.pop("solver_time_s")
    return d


def small_points():
    return [
        SweepPoint(a, 8, n)
        for a in ("scatter_ring_native", "scatter_ring_opt")
        for n in (4096, 65536)
    ]


@pytest.fixture()
def server(tmp_path):
    srv = SimulationServer(jobs=1, state_file=tmp_path / "service.json")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.request_shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture()
def client(server):
    return ServiceClient(server.host, server.port)


class TestLiveness:
    def test_ping(self, client, server):
        pong = client.ping()
        assert pong["type"] == "pong"
        assert pong["workers"] == server.jobs

    def test_stats_counts_jobs(self, client):
        spec = hornet(nodes=4)
        list(client.sweep(spec, small_points()[:1], cache=False))
        stats = client.stats()
        assert stats["jobs"] == 1 and stats["points"] == 1
        assert stats["cache"] is None  # server started without a cache

    def test_state_file_advertises_address(self, server, tmp_path):
        from repro.service.protocol import read_state

        assert read_state(tmp_path / "service.json") == (server.host, server.port)


class TestSweepEquality:
    def test_records_byte_identical_to_serial(self, client):
        spec = hornet(nodes=4)
        points = small_points()
        via_service = dict(client.sweep(spec, points, cache=False))
        for i, point in enumerate(points):
            serial = simulate_bcast(
                spec,
                nranks=point.nranks,
                nbytes=point.nbytes,
                algorithm=point.algorithm,
            )
            status, rec = via_service[i]
            assert status == "ok"
            assert rec == serial
            assert det_fields(rec) == det_fields(serial)

    def test_error_streamed_with_index(self, client):
        spec = hornet(nodes=4)
        points = [SweepPoint("scatter_ring_opt", 8, 4096), SweepPoint("bogus", 8, 4096)]
        outcomes = dict(client.sweep(spec, points, cache=False))
        assert outcomes[0][0] == "ok"
        status, error_type, message, tb = outcomes[1]
        assert status == "err"
        assert error_type == "CollectiveError"
        assert "bogus" in message
        assert "Traceback" in tb

    def test_server_side_cache(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        srv = SimulationServer(
            jobs=1, cache=cache, state_file=tmp_path / "service.json"
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(srv.host, srv.port)
            spec = hornet(nodes=4)
            points = small_points()[:2]
            first = dict(client.sweep(spec, points))
            second = dict(client.sweep(spec, points))
            assert {i: o[1] for i, o in first.items()} == {
                i: o[1] for i, o in second.items()
            }
            stats = client.stats()["cache"]
            assert stats["stores"] == 2 and stats["hits"] == 2
            # The cache is bypassable per request.
            list(client.sweep(spec, points, cache=False))
            assert client.stats()["cache"]["hits"] == 2
        finally:
            srv.request_shutdown()
            thread.join(timeout=30)


class TestExecutorRouting:
    def test_executor_service_matches_serial(self, server, tmp_path):
        spec = hornet(nodes=4)
        points = small_points()
        routed = SweepExecutor(serve=f"{server.host}:{server.port}").run(spec, points)
        serial = SweepExecutor(serve=False).run(spec, points)
        assert routed == serial
        assert [det_fields(r) for r in routed] == [det_fields(r) for r in serial]

    def test_sweep_run_serve_kwarg(self, server):
        def sweep():
            return Sweep(
                hornet(nodes=4),
                sizes=["4KiB", "64KiB"],
                ranks=[8],
                algorithms=["scatter_ring_native", "scatter_ring_opt"],
            )

        assert sweep().run(serve=f"{server.host}:{server.port}") == sweep().run(
            serve=False
        )

    def test_job_failure_carries_point(self, server):
        bad = SweepPoint("no_such_algorithm", 8, 1024)
        executor = SweepExecutor(serve=f"{server.host}:{server.port}")
        with pytest.raises(ServiceJobError) as err:
            executor.run(hornet(nodes=4), [bad])
        assert err.value.point == bad
        assert err.value.error_type == "CollectiveError"
        assert err.value.worker_traceback
        # Drivers catching the generic executor failure still work.
        assert isinstance(err.value, SweepExecutionError)
        assert isinstance(err.value, ServiceError)

    def test_client_side_cache_pass_skips_server(self, server, tmp_path):
        spec = hornet(nodes=4)
        points = small_points()[:2]
        cache = DiskCache(tmp_path / "client-cache")
        for point in points:
            key = cache_key(spec, point)
            cache.put(key, simulate_bcast(
                spec, nranks=point.nranks, nbytes=point.nbytes,
                algorithm=point.algorithm,
            ))
        before = ServiceClient(server.host, server.port).stats()["points"]
        records = SweepExecutor(
            cache=cache, serve=f"{server.host}:{server.port}"
        ).run(spec, points)
        assert len(records) == len(points)
        after = ServiceClient(server.host, server.port).stats()["points"]
        assert after == before  # fully warm: nothing was submitted


class TestDiscovery:
    def test_env_off_values(self, monkeypatch):
        for value in ("", "0", "off", "no", "false"):
            monkeypatch.setenv("REPRO_SERVE", value)
            assert resolve_address(None) is None

    def test_serve_false_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "127.0.0.1:1")
        assert resolve_address(False) is None

    def test_auto_without_state_file(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_address(True) is None
        assert resolve_address("auto") is None
        monkeypatch.setenv("REPRO_SERVE", "auto")
        assert resolve_address(None) is None

    def test_host_port_parse(self):
        resolved = resolve_address("127.0.0.1:4242")
        assert (resolved.host, resolved.port) == ("127.0.0.1", 4242)
        assert resolved.explicit

    def test_env_address_is_not_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "127.0.0.1:4242")
        resolved = resolve_address(None)
        assert (resolved.host, resolved.port) == ("127.0.0.1", 4242)
        assert not resolved.explicit

    def test_state_file_path_resolution(self, server, tmp_path):
        resolved = resolve_address(str(tmp_path / "service.json"))
        assert (resolved.host, resolved.port) == (server.host, server.port)

    def test_explicit_missing_state_file_raises(self, tmp_path):
        with pytest.raises(ServiceUnavailableError):
            resolve_address(str(tmp_path / "nope.json"))

    def test_connect_or_none_explicit_dead_raises(self):
        with pytest.raises(ServiceUnavailableError) as err:
            connect_or_none("127.0.0.1:1")
        assert "127.0.0.1:1" in str(err.value)

    def test_connect_or_none_env_dead_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "127.0.0.1:1")
        assert connect_or_none(None) is None

    def test_connect_or_none_live(self, server, tmp_path):
        client = connect_or_none(str(tmp_path / "service.json"))
        assert client is not None
        assert client.ping()["type"] == "pong"

    def test_executor_falls_back_when_env_server_dead(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "127.0.0.1:1")
        spec = hornet(nodes=4)
        points = small_points()[:1]
        records = SweepExecutor().run(spec, points)
        assert records[0].algorithm == points[0].algorithm


class TestShutdown:
    def test_shutdown_removes_state_and_stops(self, tmp_path):
        srv = SimulationServer(jobs=1, state_file=tmp_path / "service.json")
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(srv.host, srv.port)
        assert client.ping()["type"] == "pong"
        assert client.shutdown_server()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not (tmp_path / "service.json").exists()

    def test_shutdown_server_on_dead_port_is_false(self):
        assert ServiceClient("127.0.0.1", 1).shutdown_server() is False
