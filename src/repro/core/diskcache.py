"""Persistent on-disk result cache for sweep points.

Every simulated point is a pure function of (machine spec, point, root,
placement) plus the simulator's code version, so its
:class:`~repro.core.report.RunRecord` can be persisted and reused across
processes: re-running a figure bench after the first pass skips every
already-simulated point.

Storage is *sharded* JSON-lines: records live under ``shards/<xx>.jsonl``
where ``xx`` is the first two hex digits of the key, one
``{"key": ..., "record": ...}`` object per line — append-only writes, no
index file, human-greppable. Sharding keeps two properties the
single-file layout could not offer:

* **lazy loading** — a lookup parses only the one shard its key hashes
  to (1/256th of the store), instead of the whole cache on first use;
* **concurrent safety** — appends take an exclusive ``flock`` on the
  shard file and writers touching different shards never contend at
  all. Readers that miss re-scan just the bytes appended since their
  last load, so concurrent sweeps can share a warm cache directory
  without lost or torn records.

Every line written carries a content checksum (``"sum"``: a SHA-256
prefix over the canonical ``{"key", "record"}`` JSON), so a torn append,
a truncated shard, or bit-rot is *detected*, not silently parsed into a
wrong record: readers skip every line without a matching checksum, and
:meth:`DiskCache.fsck` (``repro cache --fsck``) reports those lines as
corrupt and can atomically rewrite the damaged shards keeping only
verified records.

The directory defaults to ``~/.cache/repro`` (respecting
``XDG_CACHE_HOME``) and can be overridden with the ``REPRO_CACHE_DIR``
environment variable or the ``path=`` argument.

Keys are SHA-256 hashes over the canonical JSON of every input that can
change a result, salted with :data:`CACHE_VERSION`. Bump that constant
whenever the simulation semantics change — old entries then simply stop
matching (they are invalidated by construction, not migrated).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from ..machine import MachineSpec
from .report import RunRecord

try:  # POSIX advisory locking; appends fall back to bare O_APPEND elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-posix platform
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "DiskCache",
    "CacheStats",
    "FsckReport",
    "cache_key",
    "default_cache_dir",
    "CACHE_VERSION",
]

# Code-version salt folded into every key. Bump on any change that
# alters simulated results (engine semantics, fluid model, algorithms).
# 2026.08.08.2: solver_rounds now counts kernel-equivalent rounds on
# memo hits too (cross-run shared solve memo).
CACHE_VERSION = "2026.08.08.2"

_SHARD_DIR = "shards"
_PREFIX_LEN = 2  # hex chars -> 256 shards


def default_cache_dir() -> Path:
    """Resolve the cache directory (without creating it).

    Precedence: ``REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro`` >
    ``~/.cache/repro``.
    """
    override = os.environ.get("REPRO_CACHE_DIR", "")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_key(
    spec: MachineSpec,
    point,
    root: int = 0,
    placement="blocked",
    salt: str = CACHE_VERSION,
    faults=None,
) -> str:
    """Content hash identifying one simulated point.

    ``point`` is anything with ``algorithm``/``nranks``/``nbytes``
    attributes (a :class:`~repro.core.sweep.SweepPoint`). Placement
    policies are keyed by ``str()`` so explicit rank lists and named
    policies both participate. ``faults`` (a
    :class:`~repro.sim.faults.FaultPlan`) enters via its content digest,
    so chaos records never collide with clean-run entries for the same
    point.
    """
    payload = {
        "spec": dataclasses.asdict(spec),
        "point": (point.algorithm, point.nranks, point.nbytes),
        "root": root,
        "placement": str(placement),
        "faults": faults.digest() if faults is not None else "",
        "salt": salt,
    }
    blob = json.dumps(payload, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting for one :class:`DiskCache` instance."""

    hits: int
    misses: int
    stores: int
    entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return (
            f"cache: {self.entries} entries, {self.hits} hits / "
            f"{self.misses} misses ({self.hit_rate:.0%}), {self.stores} stores"
        )


def _line_checksum(key: str, record: dict) -> str:
    """Content checksum of one cache line's payload (canonical JSON)."""
    blob = json.dumps(
        {"key": key, "record": record}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _scan_lines(text: str):
    """Parse JSON-lines cache content, verifying per-line checksums.

    Returns ``(entries, corrupt)``: the verified records and how many
    lines were dropped (torn JSON, missing fields, or a missing or
    mismatched checksum — the payload was altered after it was written,
    or was written before lines carried checksums).
    """
    entries: Dict[str, RunRecord] = {}
    corrupt = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            key = obj["key"]
            record = obj["record"]
            rec = RunRecord(**record)
            if obj["sum"] != _line_checksum(key, record):
                raise ValueError("checksum mismatch")
        except (ValueError, KeyError, TypeError):
            corrupt += 1  # torn/stale line: ignore, do not crash
            continue
        entries[key] = rec
    return entries, corrupt


def _parse_lines(text: str) -> Dict[str, RunRecord]:
    """Parse JSON-lines cache content, skipping torn/corrupt lines."""
    return _scan_lines(text)[0]


@dataclass(frozen=True)
class FsckReport:
    """Outcome of one :meth:`DiskCache.fsck` integrity scan."""

    shards: int  # shard files scanned
    entries: int  # verified records across all shards
    corrupt: int  # lines dropped: torn JSON, no checksum or a mismatch
    repaired: int  # corrupt lines resolved by a repair rewrite

    @property
    def ok(self) -> bool:
        return self.corrupt == 0

    def describe(self) -> str:
        verdict = "clean" if self.ok else "CORRUPT"
        text = (
            f"cache fsck: {verdict} — {self.entries} verified record(s) in "
            f"{self.shards} shard(s); {self.corrupt} corrupt line(s)"
        )
        if self.repaired:
            text += f"; repaired {self.repaired} (shards rewritten)"
        elif self.corrupt:
            text += " (run with --repair to rewrite)"
        return text


class DiskCache:
    """Sharded JSON-lines RunRecord store keyed by content hash."""

    def __init__(self, path: Union[str, Path, None] = None):
        self.dir = Path(path).expanduser() if path is not None else default_cache_dir()
        self.shard_dir = self.dir / _SHARD_DIR
        # prefix -> entries; loaded lazily, one shard at a time.
        self._shards: Dict[str, Dict[str, RunRecord]] = {}
        # prefix -> bytes of the shard file consumed so far. A miss on a
        # loaded shard re-reads only the tail another process appended.
        self._offsets: Dict[str, int] = {}
        self._hits = 0
        self._misses = 0
        self._stores = 0

    # -- persistence --------------------------------------------------
    @staticmethod
    def _prefix(key: str) -> str:
        return key[:_PREFIX_LEN].lower()

    def _shard_path(self, prefix: str) -> Path:
        return self.shard_dir / f"{prefix}.jsonl"

    def _load_shard(self, prefix: str) -> Dict[str, RunRecord]:
        entries = self._shards.get(prefix)
        if entries is None:
            entries = {}
            path = self._shard_path(prefix)
            if path.exists():
                text = path.read_text(encoding="utf-8")
                self._offsets[prefix] = len(text.encode("utf-8"))
                entries = _parse_lines(text)
            else:
                self._offsets[prefix] = 0
            self._shards[prefix] = entries
        return entries

    def _refresh_shard(self, prefix: str) -> Dict[str, RunRecord]:
        """Pick up lines appended by other processes since our load."""
        entries = self._load_shard(prefix)
        path = self._shard_path(prefix)
        try:
            size = path.stat().st_size
        except OSError:
            return entries
        offset = self._offsets.get(prefix, 0)
        if size > offset:
            with open(path, "rb") as fh:
                fh.seek(offset)
                tail = fh.read()
            # Only complete lines: a concurrent writer may be mid-append.
            cut = tail.rfind(b"\n") + 1
            entries.update(_parse_lines(tail[:cut].decode("utf-8")))
            self._offsets[prefix] = offset + cut
        return entries

    def _append(self, key: str, rec: RunRecord) -> None:
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        record = dataclasses.asdict(rec)
        line = (
            json.dumps(
                {"key": key, "record": record,
                 "sum": _line_checksum(key, record)},
                sort_keys=True,
            )
            + "\n"
        )
        path = self._shard_path(self._prefix(key))
        # The loaded offset is deliberately NOT advanced past this line:
        # a concurrent writer may have appended before ours, and skipping
        # ahead would hide its records. The next refresh re-parses our
        # own line too, which is a harmless idempotent dict update.
        with open(path, "a", encoding="utf-8") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.write(line)
                fh.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # -- mapping ------------------------------------------------------
    def get(self, key: str) -> Optional[RunRecord]:
        """Cached record for *key*, counting a hit or a miss."""
        prefix = self._prefix(key)
        rec = self._load_shard(prefix).get(key)
        if rec is None:
            # Another process may have stored it since our shard load.
            rec = self._refresh_shard(prefix).get(key)
        if rec is None:
            self._misses += 1
        else:
            self._hits += 1
        return rec

    def put(self, key: str, rec: RunRecord) -> None:
        """Persist *rec* under *key* (no-op if the key is already stored)."""
        prefix = self._prefix(key)
        entries = self._load_shard(prefix)
        if key in entries:
            return
        entries[key] = rec
        self._append(key, rec)
        self._stores += 1

    def _all_entries(self) -> Dict[str, RunRecord]:
        entries: Dict[str, RunRecord] = {}
        if self.shard_dir.is_dir():
            for path in sorted(self.shard_dir.glob("*.jsonl")):
                entries.update(self._refresh_shard(path.stem))
        return entries

    def __len__(self) -> int:
        return len(self._all_entries())

    def __contains__(self, key: str) -> bool:
        prefix = self._prefix(key)
        return key in self._load_shard(prefix)

    # -- maintenance --------------------------------------------------
    def invalidate(self) -> int:
        """Drop every stored record; returns how many were removed."""
        removed = len(self._all_entries())
        self._shards = {}
        self._offsets = {}
        if self.shard_dir.is_dir():
            for path in self.shard_dir.glob("*.jsonl"):
                path.unlink()
            try:
                self.shard_dir.rmdir()
            except OSError:  # pragma: no cover - foreign files present
                pass
        return removed

    clear = invalidate

    def _rewrite_shard(self, path: Path, entries: Dict[str, RunRecord]) -> None:
        """Atomically replace one shard with verified, checksummed lines.

        The exclusive flock on the live file serialises against
        concurrent appenders; ``os.replace`` makes the swap atomic for
        readers (they see either the old file or the repaired one,
        never a half-written state).
        """
        lines = []
        for key in sorted(entries):
            record = dataclasses.asdict(entries[key])
            lines.append(
                json.dumps(
                    {"key": key, "record": record,
                     "sum": _line_checksum(key, record)},
                    sort_keys=True,
                )
                + "\n"
            )
        tmp = path.with_name(path.name + ".repair")
        with open(path, "a", encoding="utf-8") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                tmp.write_text("".join(lines), encoding="utf-8")
                os.replace(tmp, path)
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def fsck(self, repair: bool = False) -> FsckReport:
        """Verify every stored line's checksum; optionally repair.

        Detects torn appends, truncated shards, bit-rot (checksum
        mismatches) and lines without a checksum. With ``repair=True``,
        shards holding such lines are atomically rewritten keeping only
        the verified records — the dropped lines' points will simply
        re-simulate.
        """
        shards = 0
        total = 0
        corrupt = 0
        repaired = 0
        if self.shard_dir.is_dir():
            for path in sorted(self.shard_dir.glob("*.jsonl")):
                shards += 1
                entries, bad = _scan_lines(path.read_text(encoding="utf-8"))
                total += len(entries)
                corrupt += bad
                if repair and bad:
                    self._rewrite_shard(path, entries)
                    repaired += bad
                    # Drop the in-memory copy: offsets no longer match.
                    self._shards.pop(path.stem, None)
                    self._offsets.pop(path.stem, None)
        return FsckReport(
            shards=shards, entries=total, corrupt=corrupt, repaired=repaired
        )

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            stores=self._stores,
            entries=len(self._all_entries()),
        )

    def __repr__(self) -> str:
        return f"<DiskCache {self.dir} {self.stats().describe()}>"
