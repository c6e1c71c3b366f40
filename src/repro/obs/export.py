"""Trace exporters: JSONL and Chrome ``trace_event`` JSON.

The Chrome format (one JSON object with a ``traceEvents`` array) loads
directly in Perfetto or ``chrome://tracing``:

- wall-clock spans become complete (``"ph": "X"``) events on their
  real process/thread rows, so spans on one thread nest by time
  containment exactly as they executed;
- sim-clock spans (frame roots, transport, playout) become async
  begin/end pairs (``"ph": "b"/"e"``) under a synthetic "simulated
  session time" process -- they overlap freely (many frames are in
  flight at once), which async tracks render correctly;
- instants become ``"ph": "i"`` marks;
- parenting is carried in ``args`` (``span``/``parent``/``trace``) so
  causal links survive even across the wall/sim clock boundary.

Timestamps are microseconds.  Wall timestamps are rebased to the
earliest wall span so traces start near zero.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.span import CLOCK_SIM, Span

__all__ = [
    "span_to_dict",
    "span_from_dict",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
]

# Synthetic pid for the simulated-time tracks; real pids are far lower.
SIM_PID = 1_000_000


def span_to_dict(span: Span) -> dict:
    """Flatten one span for JSONL export."""
    return {
        "name": span.name,
        "cat": span.category,
        "trace": span.trace_id,
        "span": span.span_id,
        "parent": span.parent_id,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "clock": span.clock,
        "status": span.status,
        "pid": span.pid,
        "tid": span.tid,
        "attrs": span.attrs,
    }


# The JSON types each span field may hold.
_FIELD_TYPES = {
    "name": str,
    "cat": str,
    "trace": (int, type(None)),
    "span": int,
    "parent": (int, type(None)),
    "start_s": (int, float),
    "end_s": (int, float, type(None)),
    "clock": str,
    "status": str,
    "pid": int,
    "tid": int,
    "attrs": dict,
}


def span_from_dict(entry: dict) -> Span:
    """Rebuild a span from its JSONL form; a missing field is a
    ``KeyError``, a wrongly typed one a ``ValueError`` naming it."""
    fields = {**entry, "attrs": entry.get("attrs", {})}
    for key, types in _FIELD_TYPES.items():
        if not isinstance(fields[key], types):
            raise ValueError(f"span field {key!r} holds {type(fields[key]).__name__}")
    return Span(
        name=entry["name"],
        category=entry["cat"],
        trace_id=entry["trace"],
        span_id=entry["span"],
        parent_id=entry["parent"],
        start_s=entry["start_s"],
        end_s=entry["end_s"],
        clock=entry["clock"],
        status=entry["status"],
        pid=entry["pid"],
        tid=entry["tid"],
        attrs=dict(fields["attrs"]),
    )


def write_spans_jsonl(spans: list[Span], path) -> Path:
    """Write one span per line; returns the path written."""
    path = Path(path)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span_to_dict(span)) + "\n")
    return path


def read_spans_jsonl(path) -> list[Span]:
    """Load a JSONL trace back into spans; a line that is not a JSON
    object carrying every span field, each of its type, is a
    ``ValueError`` naming the line (and the field)."""
    spans = []
    with Path(path).open() as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if not isinstance(entry, dict):
                raise ValueError(f"{path}: line {number}: not a span record")
            try:
                spans.append(span_from_dict(entry))
            except KeyError as error:
                raise ValueError(f"{path}: line {number}: span record lacks {error}") from None
            except ValueError as error:
                raise ValueError(f"{path}: line {number}: {error}") from None
    return spans


def _args(span: Span) -> dict:
    args = {
        "span": span.span_id,
        "parent": span.parent_id,
        "trace": span.trace_id,
        "status": span.status,
    }
    for key, value in span.attrs.items():
        if key != "instant":
            args[key] = value
    return args


def chrome_trace_events(spans: list[Span]) -> list[dict]:
    """Map spans onto Chrome ``trace_event`` records (ts in us)."""
    events: list[dict] = []
    wall_starts = [s.start_s for s in spans if s.clock != CLOCK_SIM]
    wall_origin = min(wall_starts) if wall_starts else 0.0

    seen_rows: set[tuple[int, int | None]] = set()
    for span in spans:
        sim = span.clock == CLOCK_SIM
        pid = SIM_PID if sim else span.pid
        if (pid, None) not in seen_rows:
            seen_rows.add((pid, None))
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "name": "simulated session time"
                        if sim
                        else f"process {span.pid}"
                    },
                }
            )
        start_us = (span.start_s - (0.0 if sim else wall_origin)) * 1e6
        end_s = span.end_s if span.end_s is not None else span.start_s
        duration_us = max((end_s - span.start_s) * 1e6, 0.0)
        if span.instant:
            events.append(
                {
                    "ph": "i",
                    "name": span.name,
                    "cat": span.category,
                    "pid": pid,
                    "tid": 0 if sim else span.tid,
                    "ts": start_us,
                    "s": "p",
                    "args": _args(span),
                }
            )
        elif sim:
            ident = f"0x{span.span_id:x}"
            base = {
                "name": span.name,
                "cat": span.category,
                "pid": pid,
                "tid": 0,
                "id": ident,
            }
            events.append({**base, "ph": "b", "ts": start_us, "args": _args(span)})
            events.append({**base, "ph": "e", "ts": start_us + duration_us})
        else:
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.category,
                    "pid": pid,
                    "tid": span.tid,
                    "ts": start_us,
                    "dur": duration_us,
                    "args": _args(span),
                }
            )
    return events


def write_chrome_trace(spans: list[Span], path, metadata: dict | None = None) -> Path:
    """Write a Perfetto-loadable Chrome trace; returns the path."""
    path = Path(path)
    document = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    if metadata:
        document["metadata"] = metadata
    path.write_text(json.dumps(document))
    return path
