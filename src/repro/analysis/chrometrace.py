"""Chrome trace-event export.

Writes a simulation trace as the Trace Event Format JSON that
``chrome://tracing`` / Perfetto load: one "complete" (``ph: "X"``) event
per message span, one thread lane per rank, phases colour-grouped via
categories. Handy for inspecting a broadcast schedule interactively.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Union

from ..errors import ConfigurationError
from ..sim.trace import Trace
from .timeline import message_spans

__all__ = ["to_chrome_trace", "write_chrome_trace"]


def to_chrome_trace(trace: Trace, process_name: str = "repro") -> Dict[str, object]:
    """The trace as a Trace-Event-Format dict (``traceEvents`` inside)."""
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": process_name},
        }
    ]
    seen_ranks = set()
    for span in message_spans(trace):
        for rank in {span.src, span.dst}:
            if rank not in seen_ranks:
                seen_ranks.add(rank)
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 0,
                        "tid": rank,
                        "args": {"name": f"rank {rank}"},
                    }
                )
        events.append(
            {
                "name": f"{span.phase} {span.src}->{span.dst}",
                "cat": span.phase,
                "ph": "X",
                "pid": 0,
                "tid": span.src,
                "ts": span.start * 1e6,  # microseconds per the format
                "dur": span.duration * 1e6,
                "args": {"nbytes": span.nbytes, "dst": span.dst, "tag": span.tag},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    trace: Trace, target: Union[str, IO], process_name: str = "repro"
) -> None:
    """Serialise :func:`to_chrome_trace` to a path or file object."""
    payload = to_chrome_trace(trace, process_name=process_name)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    elif hasattr(target, "write"):
        json.dump(payload, target)
    else:
        raise ConfigurationError(
            f"target must be a path or file object, got {type(target).__name__}"
        )
