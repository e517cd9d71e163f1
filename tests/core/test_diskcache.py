"""Tests for the persistent on-disk sweep-result cache."""

import json

import pytest

import repro.core.executor as executor_mod
from repro.core import (
    DiskCache,
    RunRecord,
    Sweep,
    SweepPoint,
    cache_key,
    default_cache_dir,
)
from repro.machine import ideal


def spec():
    return ideal(nodes=4, cores_per_node=8)


def sample_record(**kw):
    args = dict(
        algorithm="scatter_ring_opt",
        nranks=8,
        nbytes=65536,
        root=0,
        time=1.25e-4,
        messages=28,
        bytes_on_wire=131072,
        intra_messages=28,
        inter_messages=0,
        machine="ideal",
    )
    args.update(kw)
    return RunRecord(**args)


def small_sweep():
    return Sweep(
        spec(),
        sizes=["16KiB", "64KiB"],
        ranks=[4, 8],
        algorithms=["scatter_ring_native", "scatter_ring_opt"],
    )


class TestKey:
    def test_stable(self):
        p = SweepPoint("scatter_ring_opt", 8, 65536)
        assert cache_key(spec(), p) == cache_key(spec(), p)

    @pytest.mark.parametrize(
        "variant",
        [
            dict(point=SweepPoint("scatter_ring_native", 8, 65536)),
            dict(point=SweepPoint("scatter_ring_opt", 4, 65536)),
            dict(point=SweepPoint("scatter_ring_opt", 8, 16384)),
            dict(root=1),
            dict(placement="round_robin"),
            dict(salt="other-version"),
        ],
    )
    def test_any_input_changes_key(self, variant):
        base = dict(point=SweepPoint("scatter_ring_opt", 8, 65536))
        merged = {**base, **variant}
        assert cache_key(spec(), **merged) != cache_key(spec(), **base)

    def test_spec_changes_key(self):
        p = SweepPoint("scatter_ring_opt", 8, 65536)
        assert cache_key(spec(), p) != cache_key(spec().with_(nic_bw=1.0e9), p)

    def test_env_override_controls_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestDiskCache:
    def test_miss_then_hit(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("k") is None
        cache.put("k", sample_record())
        assert cache.get("k") == sample_record()
        s = cache.stats()
        assert (s.hits, s.misses, s.stores, s.entries) == (1, 1, 1, 1)

    def test_persists_across_instances(self, tmp_path):
        DiskCache(tmp_path).put("k", sample_record())
        reopened = DiskCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.get("k") == sample_record()

    def test_put_is_idempotent(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", sample_record())
        cache.put("k", sample_record(time=9.9))  # ignored: key already stored
        assert cache.get("k").time == 1.25e-4
        assert cache.stats().stores == 1

    def test_invalidate(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", sample_record())
        cache.put("b", sample_record(nbytes=16384))
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert not cache.shard_dir.exists()
        assert len(DiskCache(tmp_path)) == 0

    def test_corrupt_lines_skipped(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("good", sample_record())
        (shard,) = cache.shard_dir.glob("*.jsonl")
        with open(shard, "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
            fh.write(json.dumps({"wrong": "shape"}) + "\n")
        reopened = DiskCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.get("good") == sample_record()


class TestSweepIntegration:
    def test_warm_cache_skips_all_simulation(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        first = small_sweep().run(cache=cache)
        assert cache.stats().stores == 8

        calls = []
        real = executor_mod.simulate_bcast

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(executor_mod, "simulate_bcast", counting)
        warm_cache = DiskCache(tmp_path)
        second = small_sweep().run(cache=warm_cache)
        assert calls == []  # zero simulate_bcast calls on a warm cache
        assert second == first
        s = warm_cache.stats()
        assert (s.hits, s.misses) == (8, 0)

    def test_parallel_run_populates_cache(self, tmp_path):
        cache = DiskCache(tmp_path)
        parallel = small_sweep().run(jobs=4, cache=cache)
        assert cache.stats().stores == 8
        assert small_sweep().run(jobs=1) == parallel
