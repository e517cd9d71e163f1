"""Cache integrity: per-line checksums, torn-shard detection and
``fsck`` repair must turn silent corruption into loud, fixable state."""

import json

from repro.core import DiskCache, RunRecord, cache_key
from repro.core.sweep import SweepPoint
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


def populate(cache, n=4):
    keys = []
    for i in range(n):
        point = SweepPoint("scatter_ring_opt", 8, 1024 * (i + 1))
        key = cache_key(spec(), point)
        cache.put(key, sample_record(nbytes=point.nbytes))
        keys.append(key)
    return keys


class TestFsck:
    def test_clean_cache_reports_ok(self, tmp_path):
        cache = DiskCache(tmp_path)
        populate(cache)
        report = cache.fsck()
        assert report.ok
        assert report.corrupt == 0
        assert report.entries == 4
        assert "clean" in report.describe()

    def test_torn_shard_detected(self, tmp_path):
        cache = DiskCache(tmp_path)
        populate(cache)
        shard = sorted(cache.shard_dir.glob("*.jsonl"))[0]
        shard.write_bytes(shard.read_bytes()[:-19])  # tear mid-record
        report = DiskCache(tmp_path).fsck()
        assert not report.ok
        assert report.corrupt == 1
        assert "CORRUPT" in report.describe()

    def test_bit_rot_detected_by_checksum(self, tmp_path):
        cache = DiskCache(tmp_path)
        populate(cache, n=1)
        shard = sorted(cache.shard_dir.glob("*.jsonl"))[0]
        line = json.loads(shard.read_text())
        line["record"]["time"] = 9.9  # flip a value, keep valid JSON
        shard.write_text(json.dumps(line) + "\n")
        report = DiskCache(tmp_path).fsck()
        assert not report.ok
        assert report.corrupt == 1

    def test_repair_drops_corrupt_lines_and_keeps_the_rest(self, tmp_path):
        cache = DiskCache(tmp_path)
        keys = populate(cache)
        shard = sorted(cache.shard_dir.glob("*.jsonl"))[0]
        shard.write_bytes(shard.read_bytes()[:-19])
        fresh = DiskCache(tmp_path)
        report = fresh.fsck(repair=True)
        assert report.repaired == 1
        assert DiskCache(tmp_path).fsck().ok
        # Exactly one record was lost to the tear; the others survive
        # and the lost one reads as a plain miss, not an error.
        survivors = sum(
            1 for k in keys if DiskCache(tmp_path).get(k) is not None
        )
        assert survivors == 3

    def test_corrupt_line_skipped_on_normal_read(self, tmp_path):
        cache = DiskCache(tmp_path)
        keys = populate(cache)
        shard = sorted(cache.shard_dir.glob("*.jsonl"))[0]
        shard.write_bytes(shard.read_bytes()[:-19])
        fresh = DiskCache(tmp_path)
        # Reads never crash on a torn shard; the torn key is a miss.
        hits = [k for k in keys if fresh.get(k) is not None]
        assert len(hits) == 3

    def test_pre_checksum_lines_are_corrupt(self, tmp_path):
        cache = DiskCache(tmp_path)
        (keys,) = [populate(cache, n=1)]
        shard = sorted(cache.shard_dir.glob("*.jsonl"))[0]
        line = json.loads(shard.read_text())
        line.pop("sum")  # a line written before checksums existed
        shard.write_text(json.dumps(line) + "\n")
        fresh = DiskCache(tmp_path)
        assert fresh.get(keys[0]) is None  # skipped on read: a miss
        report = fresh.fsck()
        assert not report.ok and report.corrupt == 1
        assert fresh.fsck(repair=True).repaired == 1
        assert DiskCache(tmp_path).fsck().ok
        assert shard.read_text() == ""
