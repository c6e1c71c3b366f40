"""Span records.

The span taxonomy (DESIGN.md section 10) is three levels deep:

- **frame** -- one root span per capture sequence (``trace_id`` is the
  sequence number), on the *simulated* clock: capture tick to
  resolution (delivered+decoded, abandoned, skipped, ...);
- **stage** -- one span per stage execution (capture, prepare, encode,
  decode, quality) on the *wall* clock, parented under the frame root;
- **worker** -- the PointSSIM job the quality stage submits, parented
  under the stage span; it runs on the scoring thread and may close
  after its stage span has.

``transport`` spans ride the sim clock (send tick to last-byte
delivery per stream); ``fault`` instants mark injected/observed fault
events on the sim timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Span",
    "CLOCK_WALL",
    "CLOCK_SIM",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_INCOMPLETE",
]

CLOCK_WALL = "wall"
CLOCK_SIM = "sim"

STATUS_OK = "ok"
STATUS_ERROR = "error"
# Closed administratively at trace finish (work never completed).
STATUS_INCOMPLETE = "incomplete"


@dataclass
class Span:
    """One closed-or-open interval of attributed work.

    ``end_s`` is None while the span is open; an exported trace never
    contains open spans -- :meth:`repro.obs.tracer.Tracer.finish`
    closes stragglers with :data:`STATUS_INCOMPLETE`.
    """

    name: str
    category: str
    trace_id: int | None
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float | None = None
    clock: str = CLOCK_WALL
    status: str = STATUS_OK
    pid: int = 0
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def open(self) -> bool:
        """Whether the span has not been closed yet."""
        return self.end_s is None

    @property
    def duration_s(self) -> float:
        """Closed duration in seconds (0.0 while open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def instant(self) -> bool:
        """Whether this is a zero-duration marker event."""
        return self.attrs.get("instant", False) is True
