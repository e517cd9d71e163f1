"""Structured event tracing for simulations.

A :class:`Trace` is an append-only log of timestamped records. The MPI
runtime emits records for message posts, matches, flow starts and
completions; tests and the analysis layer query them to validate
schedules (e.g. "the tuned ring issued exactly N transfers, none of them
carrying an already-owned chunk").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

__all__ = ["TraceRecord", "Trace", "NullTrace"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: time, event kind and free-form fields."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.fields.items()))
        return f"TraceRecord(t={self.time:.9g}, {self.kind}, {inner})"


class Trace:
    """Append-only record log with simple query helpers."""

    enabled = True

    def __init__(self) -> None:
        self.records: list = []

    def emit(self, time: float, kind: str, **fields) -> None:
        self.records.append(TraceRecord(time, kind, fields))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def by_kind(self, kind: str) -> list:
        return [r for r in self.records if r.kind == kind]

    def where(self, kind: Optional[str] = None, **conditions) -> list:
        """Records matching *kind* (if given) and all field equalities."""
        out = []
        for rec in self.records:
            if kind is not None and rec.kind != kind:
                continue
            if all(rec.fields.get(k) == v for k, v in conditions.items()):
                out.append(rec)
        return out

    def kinds(self) -> dict:
        """Histogram of record kinds."""
        hist: dict = {}
        for rec in self.records:
            hist[rec.kind] = hist.get(rec.kind, 0) + 1
        return hist


class NullTrace(Trace):
    """Trace sink that drops everything — used by large benchmark runs."""

    enabled = False

    def emit(self, time: float, kind: str, **fields) -> None:  # noqa: D102
        pass
