"""Tests for the sharded DiskCache layout and its concurrency.

Records live in ``shards/<xx>.jsonl`` so many processes (concurrent CLI
runs) can share one cache directory. These tests cover what the layout
promises: flock-protected appends lose nothing under multi-process
contention, and readers pick up other writers' records.
"""

import json
import multiprocessing

from repro.core.diskcache import DiskCache
from repro.core.report import RunRecord


def make_record(i: int) -> RunRecord:
    return RunRecord(
        algorithm=f"algo{i}",
        nranks=8,
        nbytes=1024 + i,
        root=0,
        time=1e-5 * (i + 1),
        messages=i,
        bytes_on_wire=2048 + i,
        intra_messages=i,
        inter_messages=0,
        machine="test",
    )


def make_key(i: int, prefix: str = "") -> str:
    """A 64-hex-char key; ``prefix`` pins the shard it lands in."""
    body = f"{i:x}".rjust(64 - len(prefix), "0")
    return (prefix + body)[:64]


class TestShardedLayout:
    def test_put_creates_prefix_shard(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(make_key(1, "ab"), make_record(1))
        assert (tmp_path / "shards" / "ab.jsonl").exists()

    def test_round_trip_across_instances(self, tmp_path):
        writer = DiskCache(tmp_path)
        keys = [make_key(i) for i in range(20)]
        for i, key in enumerate(keys):
            writer.put(key, make_record(i))
        reader = DiskCache(tmp_path)
        assert len(reader) == 20
        for i, key in enumerate(keys):
            assert reader.get(key) == make_record(i)

    def test_reader_sees_later_writer_same_shard(self, tmp_path):
        """A loaded shard is refreshed when another process appends."""
        reader = DiskCache(tmp_path)
        key_a, key_b = make_key(1, "aa"), make_key(2, "aa")
        assert reader.get(key_a) is None  # shard "aa" now loaded (empty)
        writer = DiskCache(tmp_path)
        writer.put(key_a, make_record(1))
        writer.put(key_b, make_record(2))
        assert reader.get(key_a) == make_record(1)
        assert reader.get(key_b) == make_record(2)

    def test_torn_line_skipped(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = make_key(3, "cc")
        cache.put(key, make_record(3))
        shard = tmp_path / "shards" / "cc.jsonl"
        with open(shard, "a", encoding="utf-8") as fh:
            fh.write('{"key": "cc1234", "record": {"algorithm": "trunc')
        reader = DiskCache(tmp_path)
        assert reader.get(key) == make_record(3)
        assert len(reader) == 1

    def test_invalidate_removes_shards(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(5):
            cache.put(make_key(i), make_record(i))
        assert cache.invalidate() == 5
        assert len(DiskCache(tmp_path)) == 0
        assert not (tmp_path / "shards").is_dir()


def _stress_writer(cache_dir: str, writer_id: int, count: int) -> None:
    """Child-process body: hammer one shard plus scattered shards."""
    cache = DiskCache(cache_dir)
    for i in range(count):
        # Half the keys share shard "ee" to force flock contention, half
        # spread by writer so the cross-shard path is exercised too.
        if i % 2 == 0:
            key = make_key(writer_id * 10_000 + i, "ee")
        else:
            key = make_key(writer_id * 10_000 + i, f"{writer_id:02x}")
        cache.put(key, make_record(writer_id * 10_000 + i))


class TestConcurrentWriters:
    def test_no_lost_or_torn_records(self, tmp_path):
        writers, per_writer = 4, 40
        procs = [
            multiprocessing.Process(
                target=_stress_writer, args=(str(tmp_path), w, per_writer)
            )
            for w in range(writers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        cache = DiskCache(tmp_path)
        assert len(cache) == writers * per_writer
        for w in range(writers):
            for i in range(per_writer):
                n = w * 10_000 + i
                prefix = "ee" if i % 2 == 0 else f"{w:02x}"
                rec = cache.get(make_key(n, prefix))
                assert rec == make_record(n), (w, i)
        # Every shard line parses: flock kept appends atomic (and every
        # concurrently-appended line carries its integrity checksum).
        for shard in (tmp_path / "shards").glob("*.jsonl"):
            for line in shard.read_text(encoding="utf-8").splitlines():
                obj = json.loads(line)
                assert set(obj) == {"key", "record", "sum"}
        assert DiskCache(tmp_path).fsck().ok
