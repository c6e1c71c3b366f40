"""Deterministic replay: re-run a recorded scenario and diff.

``replay_artifact`` loads a recording, rebuilds the spec it embeds,
re-runs the scenario from scratch, and structurally diffs the fresh
records against the golden ones.  Because every run is a deterministic
function of the spec, any divergence is a real behavior change --
the :class:`DiffReport` names the first divergent frame and field so a
regression bisects itself to a stage.

A corrupted artifact (checksum mismatch) is still parsed and diffed
when possible: the checksum divergence is reported first, followed by
whatever record-level differences the corruption produced.  An
artifact that cannot be replayed at all -- bad JSON, no header, a
foreign schema version, a missing or invalid spec -- raises
:class:`ArtifactError` instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.scenario.recorder import SCHEMA_VERSION, artifact_records, canonical_dumps
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "ArtifactError",
    "Divergence",
    "DiffReport",
    "load_artifact",
    "diff_records",
    "replay_artifact",
]


class ArtifactError(ValueError):
    """The artifact is structurally unusable (not merely divergent)."""


@dataclass(frozen=True)
class Divergence:
    """One point where replay disagrees with the recording."""

    kind: str  # record kind: frame / snapshot / event / report / checksum / header
    sequence: int | None  # frame sequence when applicable
    field: str
    expected: object
    actual: object

    def describe(self) -> str:
        where = f"{self.kind}"
        if self.sequence is not None:
            where += f"[seq={self.sequence}]"
        return f"{where}.{self.field}: recorded={self.expected!r} replayed={self.actual!r}"


@dataclass
class DiffReport:
    """Structured outcome of a replay comparison."""

    scenario: str
    matches: bool
    divergences: list[Divergence] = field(default_factory=list)
    compared_frames: int = 0

    @property
    def first_divergent_frame(self) -> int | None:
        """The earliest frame sequence that diverged, if any did."""
        frames = [d.sequence for d in self.divergences if d.sequence is not None]
        return min(frames) if frames else None

    def format(self) -> str:
        if self.matches:
            return (
                f"replay OK: {self.scenario} "
                f"({self.compared_frames} frames byte-identical)"
            )
        lines = [
            f"replay DIVERGED: {self.scenario} "
            f"({len(self.divergences)} divergence(s))"
        ]
        first = self.first_divergent_frame
        if first is not None:
            lines.append(f"first divergent frame: {first}")
        for divergence in self.divergences[:20]:
            lines.append(f"  {divergence.describe()}")
        if len(self.divergences) > 20:
            lines.append(f"  ... {len(self.divergences) - 20} more")
        return "\n".join(lines)


def load_artifact(path: str | Path) -> tuple[list[dict], bool]:
    """Parse an artifact into (body records, checksum_ok).

    Raises :class:`ArtifactError` when the file cannot serve as a
    replay golden at all: unparseable JSON, a line that is not an
    object, a record without a string ``kind``, a frame record without
    an integer ``sequence`` (what :func:`diff_records` keys frames by),
    no header, or a schema version this code does not speak.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        raise ArtifactError(f"cannot read artifact: {error}") from error
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise ArtifactError(f"line {number} is not valid JSON: {error}") from error
        record = records[-1]
        if not isinstance(record, dict):
            raise ArtifactError(f"line {number} is not a JSON object")
        if not isinstance(record.get("kind"), str):
            raise ArtifactError(f"line {number} has no string 'kind'")
        if record["kind"] == "frame" and type(record.get("sequence")) is not int:
            raise ArtifactError(f"line {number}: frame record has no integer 'sequence'")
    if not records:
        raise ArtifactError("artifact is empty")
    checksum_ok = False
    if records[-1].get("kind") == "checksum":
        trailer = records.pop()
        body = "\n".join(canonical_dumps(record) for record in records) + "\n"
        checksum_ok = (
            hashlib.sha256(body.encode()).hexdigest() == trailer.get("sha256")
        )
    header = records[0]
    if header.get("kind") != "header":
        raise ArtifactError("artifact does not start with a header record")
    if header.get("version") != SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact schema version {header.get('version')!r} "
            f"(this build speaks {SCHEMA_VERSION})"
        )
    return records, checksum_ok


def _by_kind(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for record in records:
        out.setdefault(record.get("kind", "?"), []).append(record)
    return out


def _diff_dict(
    kind: str,
    sequence: int | None,
    golden: dict,
    fresh: dict,
    out: list[Divergence],
    prefix: str = "",
) -> None:
    for key in sorted(set(golden) | set(fresh)):
        if key == "kind":
            continue
        expected = golden.get(key, "<absent>")
        actual = fresh.get(key, "<absent>")
        name = f"{prefix}{key}"
        if isinstance(expected, dict) and isinstance(actual, dict):
            _diff_dict(kind, sequence, expected, actual, out, prefix=f"{name}.")
        elif expected != actual:
            out.append(Divergence(kind, sequence, name, expected, actual))


def diff_records(golden: list[dict], fresh: list[dict], scenario: str) -> DiffReport:
    """Structurally compare two artifact bodies, frame-first."""
    divergences: list[Divergence] = []
    golden_kinds = _by_kind(golden)
    fresh_kinds = _by_kind(fresh)

    golden_frames = {r["sequence"]: r for r in golden_kinds.get("frame", [])}
    fresh_frames = {r["sequence"]: r for r in fresh_kinds.get("frame", [])}
    for sequence in sorted(set(golden_frames) | set(fresh_frames)):
        in_golden = golden_frames.get(sequence)
        in_fresh = fresh_frames.get(sequence)
        if in_golden is None or in_fresh is None:
            divergences.append(
                Divergence(
                    "frame",
                    sequence,
                    "presence",
                    "recorded" if in_golden else "<absent>",
                    "replayed" if in_fresh else "<absent>",
                )
            )
            continue
        _diff_dict("frame", sequence, in_golden, in_fresh, divergences)

    for kind in ("header", "report"):
        golden_one = golden_kinds.get(kind, [{}])[0]
        fresh_one = fresh_kinds.get(kind, [{}])[0]
        _diff_dict(kind, None, golden_one, fresh_one, divergences)

    for kind in ("snapshot", "event"):
        golden_list = golden_kinds.get(kind, [])
        fresh_list = fresh_kinds.get(kind, [])
        if len(golden_list) != len(fresh_list):
            divergences.append(
                Divergence(kind, None, "count", len(golden_list), len(fresh_list))
            )
        for index, (g, f) in enumerate(zip(golden_list, fresh_list)):
            sequence = g.get("through_sequence", g.get("sequence"))
            _diff_dict(kind, sequence, g, f, divergences)

    frame_order = {d.sequence: i for i, d in enumerate(divergences)}
    divergences.sort(
        key=lambda d: (
            d.sequence is None,
            d.sequence if d.sequence is not None else 0,
            frame_order.get(d.sequence, 0),
        )
    )
    return DiffReport(
        scenario=scenario,
        matches=not divergences,
        divergences=divergences,
        compared_frames=len(golden_frames),
    )


def replay_artifact(path: str | Path):
    """Re-run a recording and diff it against itself.

    Returns ``(spec, diff, report)``: the spec the header embeds, the
    :class:`DiffReport`, and the fresh
    :class:`~repro.core.stats.SessionReport` (for invariant checks).
    A header without a spec, or with one the spec's codec or its own
    checks reject, raises :class:`ArtifactError`.
    """
    from repro.scenario.runner import run_scenario

    golden, checksum_ok = load_artifact(path)
    if "spec" not in golden[0]:
        raise ArtifactError("header record has no spec")
    try:
        spec = ScenarioSpec.from_dict(golden[0]["spec"])
    except ValueError as error:
        raise ArtifactError(str(error)) from error
    report = run_scenario(spec)
    fresh = artifact_records(spec, report)
    # Normalize the fresh records through the same JSON round-trip the
    # golden ones took, so float/tuple representations compare equal.
    fresh = [json.loads(canonical_dumps(record)) for record in fresh]
    golden = [json.loads(canonical_dumps(record)) for record in golden]
    diff = diff_records(golden, fresh, scenario=spec.name)
    if not checksum_ok:
        diff.matches = False
        diff.divergences.insert(
            0,
            Divergence(
                "checksum",
                None,
                "sha256",
                "recorded trailer",
                "body does not match (artifact edited or truncated)",
            ),
        )
    return spec, diff, report
