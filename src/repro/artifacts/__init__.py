"""Durable, re-executable run artifacts and the ``repro audit`` gate.

See :mod:`repro.artifacts.store` for the artifact schema and store
layout, and :mod:`repro.artifacts.audit` for re-execution and bitwise
diffing. ``docs/robustness.md`` documents the workflow.
"""

from .._lazy import lazy_hub

__all__, __getattr__ = lazy_hub(
    __name__,
    {
        "store": [
            "ARTIFACT_VERSION",
            "ARTIFACTS_ENV",
            "VOLATILE_KEYS",
            "ArtifactStore",
            "RunArtifact",
            "artifact_digest",
            "canonical_json",
            "default_store_dir",
            "env_fingerprint",
            "scrub",
        ],
        "audit": ["AuditResult", "audit_artifact", "diff_payload", "reexecute"],
    },
)
