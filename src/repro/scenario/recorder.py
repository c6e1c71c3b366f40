"""Record a scenario run into a versioned, replayable JSONL artifact.

The artifact is a deterministic function of the spec: it embeds the
full :class:`~repro.scenario.spec.ScenarioSpec` (so a replay needs
nothing else), the per-frame event stream (every FrameRecord plus the
sim-clock slice of the obs timeline -- frame status, lifetime, and
transport milliseconds), periodic cumulative state snapshots, the
session's fault/recovery events, a report digest, and a trailing
sha256 checksum over the body.

Only sim-clock quantities are recorded.  Wall-clock stage timings vary
run to run and would make byte-identical replays impossible; they are
deliberately excluded (mirroring how ``SessionReport`` keeps them out
of ``asdict``).

Format: one canonical-JSON object per line, each tagged with ``kind``
(``header`` / ``frame`` / ``snapshot`` / ``event`` / ``report`` /
``checksum``).  ``SCHEMA_VERSION`` gates replayability across format
changes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.stats import SessionReport
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "SCHEMA_VERSION",
    "artifact_records",
    "canonical_dumps",
    "record_scenario",
    "write_artifact",
]

SCHEMA_VERSION = 1

SNAPSHOT_EVERY = 25


def _json_safe(value):
    """Recursively coerce a value into canonical-JSON-safe form.

    numpy scalars become Python scalars; NaN/inf become None (JSON has
    no spelling for them and ``allow_nan=False`` would raise).
    """
    if isinstance(value, dict):
        return {str(key): _json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry) for entry in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def canonical_dumps(obj) -> str:
    """One canonical JSON line: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        _json_safe(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _frame_records(report: SessionReport) -> list[dict]:
    timelines = report.frame_timeline()
    records = []
    for frame in report.frames:
        entry = {"kind": "frame", **asdict(frame)}
        row = timelines.get(frame.sequence)
        if row is not None:
            # Sim-clock slice only: status, lifetime, per-stream
            # transport time, and fault instants.  Wall-clock stage and
            # worker milliseconds are run-varying and excluded.
            entry["timeline"] = {
                "status": row["status"],
                "start_s": row["start_s"],
                "end_s": row["end_s"],
                "transport_ms": row["transport_ms"],
                "events": sorted(row["events"]),
            }
        records.append(entry)
    return records


def _snapshots(report: SessionReport) -> list[dict]:
    """Cumulative state checkpoints every ``SNAPSHOT_EVERY`` frames."""
    snapshots = []
    rendered = stalled = skipped = frozen = wire_bytes = 0
    for index, frame in enumerate(report.frames):
        rendered += frame.rendered
        stalled += frame.stalled
        skipped += frame.skipped
        frozen += frame.frozen
        wire_bytes += frame.wire_bytes
        last = index == len(report.frames) - 1
        if (index + 1) % SNAPSHOT_EVERY == 0 or last:
            snapshots.append(
                {
                    "kind": "snapshot",
                    "through_sequence": frame.sequence,
                    "rendered": rendered,
                    "stalled": stalled,
                    "skipped": skipped,
                    "frozen": frozen,
                    "wire_bytes": wire_bytes,
                    "degradation_level": frame.degradation_level,
                }
            )
    return snapshots


def _ladder_metrics(report: SessionReport) -> dict:
    registry = report.metrics
    if registry is None:
        return {}
    out = {}
    for name in registry.names():
        if name.startswith("ladder."):
            out[name] = registry.get(name).to_dict()
    return out


def _report_digest(report: SessionReport) -> dict:
    latency_mean, latency_p50, latency_p95 = report.latency_stats()
    geometry_mean, _ = report.pssim_geometry()
    color_mean, _ = report.pssim_color()
    return {
        "kind": "report",
        "scheme": report.scheme,
        "video": report.video,
        "user_trace": report.user_trace,
        "network_trace": report.network_trace,
        "num_frames": report.num_frames,
        "rendered_frames": report.rendered_frames,
        "skipped_frames": report.skipped_frames,
        "frozen_frames": report.frozen_frames,
        "stall_rate": report.stall_rate,
        "mean_fps": report.mean_fps,
        "throughput_mbps": report.throughput_mbps,
        "utilization": report.utilization,
        "latency_mean_s": latency_mean,
        "latency_p50_s": latency_p50,
        "latency_p95_s": latency_p95,
        "pssim_geometry_mean": geometry_mean,
        "pssim_color_mean": color_mean,
        "mttr_s": report.mttr_s,
        "fault_counts": report.fault_counts(),
        "ladder": _ladder_metrics(report),
    }


def artifact_records(spec: ScenarioSpec, report: SessionReport) -> list[dict]:
    """The artifact's body: every record except the trailing checksum."""
    records: list[dict] = [
        {
            "kind": "header",
            "version": SCHEMA_VERSION,
            "scenario": spec.name,
            "fingerprint": spec.fingerprint(),
            "spec": spec.to_dict(),
        }
    ]
    records.extend(_frame_records(report))
    records.extend(_snapshots(report))
    for event in report.fault_events:
        records.append({"kind": "event", **asdict(event)})
    records.append(_report_digest(report))
    return records


def write_artifact(path: str | Path, records: list[dict]) -> str:
    """Serialize records + checksum to ``path``; returns the sha256."""
    lines = [canonical_dumps(record) for record in records]
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    lines.append(canonical_dumps({"kind": "checksum", "sha256": digest}))
    Path(path).write_text("\n".join(lines) + "\n")
    return digest


def record_scenario(spec: ScenarioSpec, path: str | Path) -> SessionReport:
    """Run ``spec`` and write its recording artifact to ``path``."""
    from repro.scenario.runner import run_scenario

    report = run_scenario(spec)
    write_artifact(path, artifact_records(spec, report))
    return report
