"""Durable run artifacts: every result ships with its own repro recipe.

A :class:`RunArtifact` freezes one completed run — a sweep, or a
verify/cost/chaos/replay/mc/prove gate — into a single JSON file
holding everything needed to re-execute it bit-for-bit later:

* ``config`` — the full re-execution recipe (machine spec, points,
  seeds, budgets …), content-addressed by ``config_digest``;
* ``env`` — the fingerprint the result is only valid under: the cache
  code-version salt, engine mode, python/platform. An audit
  under a different fingerprint reports *why* a mismatch is expected;
* ``records`` — the complete result payload (RunRecord rows or a gate
  report), digested by ``records_digest`` after scrubbing the few
  wall-clock telemetry fields (:data:`VOLATILE_KEYS`) that are allowed
  to differ between runs.

``repro audit <artifact>`` (:mod:`repro.artifacts.audit`) re-executes
the recipe and diffs the payload bitwise — extending the BENCH_*.json
perf trajectory into an auditable *results* history: a figure in the
paper write-up can point at an artifact file, and anyone can replay it.

Artifacts live under a store directory (``REPRO_ARTIFACTS`` env var,
``--artifact DIR``, or ``<cache-dir>/artifacts`` by default), named
``<kind>-<config_digest12>.json`` so resubmitting the same run
overwrites its own artifact instead of accumulating duplicates.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Union

from ..core.diskcache import CACHE_VERSION, default_cache_dir
from ..errors import ArtifactError

__all__ = [
    "ARTIFACT_VERSION",
    "ARTIFACTS_ENV",
    "VOLATILE_KEYS",
    "RunArtifact",
    "ArtifactStore",
    "artifact_digest",
    "canonical_json",
    "default_store_dir",
    "env_fingerprint",
    "scrub",
]

ARTIFACT_VERSION = 1

#: Default store directory override (a path; empty/unset → disabled for
#: implicit persistence, ``<cache-dir>/artifacts`` for explicit use).
ARTIFACTS_ENV = "REPRO_ARTIFACTS"

#: Record fields that legitimately differ between bitwise-equal runs
#: (wall-clock telemetry). Dropped, recursively, before digesting.
VOLATILE_KEYS = frozenset({"solver_time_s"})


def scrub(obj: Any) -> Any:
    """Recursively drop volatile (wall-clock telemetry) keys."""
    if isinstance(obj, dict):
        return {
            k: scrub(v) for k, v in obj.items() if k not in VOLATILE_KEYS
        }
    if isinstance(obj, (list, tuple)):
        return [scrub(v) for v in obj]
    return obj


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, scrubbed."""
    return json.dumps(
        scrub(obj), sort_keys=True, separators=(",", ":"), default=str
    )


def artifact_digest(obj: Any) -> str:
    """SHA-256 over the canonical JSON of *obj* (volatile keys dropped)."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def env_fingerprint() -> Dict[str, str]:
    """The environment a result is only comparable under."""
    return {
        "cache_version": CACHE_VERSION,
        "python": platform.python_version(),
        "platform": sys.platform,
    }


@dataclass(frozen=True)
class RunArtifact:
    """One frozen run: recipe + fingerprint + full results + digests."""

    kind: str  # "sweep" | "verify" | "cost" | "chaos" | "replay" | "mc" | "prove"
    config: dict  # everything needed to re-execute
    records: Any  # list of RunRecord dicts, or one gate-report dict
    config_digest: str
    records_digest: str
    env: Dict[str, str] = field(default_factory=dict)
    created: str = ""
    version: int = ARTIFACT_VERSION

    @classmethod
    def create(cls, kind: str, config: dict, records: Any) -> "RunArtifact":
        return cls(
            kind=kind,
            config=config,
            records=records,
            config_digest=artifact_digest(config),
            records_digest=artifact_digest(records),
            env=env_fingerprint(),
            created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

    # -- integrity -----------------------------------------------------
    def integrity_problems(self) -> List[str]:
        """Internal-consistency check: do the digests match the payload?

        A tampered or torn artifact file fails here without any
        re-execution at all.
        """
        problems = []
        if self.version != ARTIFACT_VERSION:
            problems.append(
                f"artifact version {self.version} (this build writes "
                f"{ARTIFACT_VERSION})"
            )
        actual = artifact_digest(self.config)
        if actual != self.config_digest:
            problems.append(
                f"config digest mismatch: stored {self.config_digest[:12]}, "
                f"payload hashes to {actual[:12]} (config was altered)"
            )
        actual = artifact_digest(self.records)
        if actual != self.records_digest:
            problems.append(
                f"records digest mismatch: stored {self.records_digest[:12]}, "
                f"payload hashes to {actual[:12]} (records were altered)"
            )
        return problems

    def env_drift(self) -> List[str]:
        """Fingerprint fields that differ from the current environment."""
        current = env_fingerprint()
        return [
            f"{key}: artifact {value!r}, current {current.get(key)!r}"
            for key, value in sorted(self.env.items())
            if current.get(key) != value
        ]

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunArtifact":
        try:
            return cls(
                kind=str(data["kind"]),
                config=dict(data["config"]),
                records=data["records"],
                config_digest=str(data["config_digest"]),
                records_digest=str(data["records_digest"]),
                env=dict(data.get("env") or {}),
                created=str(data.get("created", "")),
                version=int(data.get("version", ARTIFACT_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed artifact payload: {exc}") from exc

    @property
    def name(self) -> str:
        return f"{self.kind}-{self.config_digest[:12]}"


def default_store_dir() -> Path:
    """Resolve the artifact store directory (without creating it)."""
    override = os.environ.get(ARTIFACTS_ENV, "").strip()
    if override and override.lower() not in ("1", "auto", "on", "true"):
        return Path(override).expanduser()
    return default_cache_dir() / "artifacts"


class ArtifactStore:
    """Directory of ``<kind>-<digest12>.json`` artifact files."""

    def __init__(self, path: Union[str, Path, None] = None):
        self.dir = (
            Path(path).expanduser() if path else default_store_dir()
        )

    def save(self, artifact: RunArtifact) -> Path:
        """Persist *artifact*; same recipe → same file (idempotent)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / f"{artifact.name}.json"
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(
                json.dumps(artifact.to_dict(), indent=2, sort_keys=True)
                + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except OSError as exc:
            raise ArtifactError(
                f"cannot store artifact {artifact.name}: {exc}"
            ) from exc
        return path

    def load(self, ref: Union[str, Path]) -> RunArtifact:
        """Load an artifact by path, by name, or by ``kind-digest``."""
        candidates = [Path(ref)]
        if not str(ref).endswith(".json"):
            candidates.append(self.dir / f"{ref}.json")
        candidates.append(self.dir / str(ref))
        for path in candidates:
            if path.is_file():
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    raise ArtifactError(
                        f"cannot decode artifact {path}: {exc}"
                    ) from exc
                if not isinstance(data, dict):
                    raise ArtifactError(
                        f"artifact {path} is not a JSON object"
                    )
                return RunArtifact.from_dict(data)
        raise ArtifactError(
            f"no artifact found for {ref!r} (looked in {self.dir})"
        )

    def list(self) -> List[Path]:
        """Every artifact file in the store, sorted by name."""
        if not self.dir.is_dir():
            return []
        return sorted(self.dir.glob("*.json"))

    def __len__(self) -> int:
        return len(self.list())

    def __repr__(self) -> str:
        return f"<ArtifactStore {self.dir} ({len(self)} artifact(s))>"
