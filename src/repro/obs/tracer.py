"""The tracer: span lifecycle and frame contexts.

One :class:`Tracer` instance serves a whole session.  It is
thread-safe (ids and the span list sit behind a lock) and records; it
keeps no context.  Every span is opened with the ``trace_id`` and
``parent_id`` its caller names: a stage item under its frame root, a
quality-scoring job on the session's scoring thread under the
``quality`` stage span that submitted it.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

from repro.obs.clock import Clock, WallClock
from repro.obs.span import (
    CLOCK_SIM,
    CLOCK_WALL,
    STATUS_INCOMPLETE,
    STATUS_OK,
    Span,
)

__all__ = ["Tracer"]


class Tracer:
    """Collects spans for one session with explicit clocks."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or WallClock()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 1
        self._frame_roots: dict[int, Span] = {}

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def start_span(
        self,
        name: str,
        category: str = "stage",
        trace_id: int | None = None,
        parent_id: int | None = None,
    ) -> Span:
        """Open a wall-clock span under ``trace_id`` / ``parent_id``."""
        span = Span(
            name=name,
            category=category,
            trace_id=trace_id,
            span_id=self._allocate_id(),
            parent_id=parent_id,
            start_s=self.clock.now(),
            clock=CLOCK_WALL,
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        with self._lock:
            self._spans.append(span)
        return span

    def end_span(self, span: Span, status: str = STATUS_OK) -> None:
        """Close a span opened with :meth:`start_span`."""
        if span.end_s is not None:
            return
        span.end_s = self.clock.now()
        span.status = status

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "stage",
        trace_id: int | None = None,
        parent_id: int | None = None,
    ):
        """Context-managed wall-clock span; errors close it as such."""
        opened = self.start_span(
            name, category=category, trace_id=trace_id, parent_id=parent_id
        )
        try:
            yield opened
        except BaseException:
            self.end_span(opened, status="error")
            raise
        else:
            self.end_span(opened)

    def add_span(
        self,
        name: str,
        category: str,
        trace_id: int | None,
        start_s: float,
        end_s: float,
        parent_id: int | None = None,
        attrs: dict | None = None,
    ) -> Span:
        """Record an already-timed span on the simulated clock."""
        span = Span(
            name=name,
            category=category,
            trace_id=trace_id,
            span_id=self._allocate_id(),
            parent_id=parent_id,
            start_s=float(start_s),
            end_s=float(end_s),
            clock=CLOCK_SIM,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=attrs or {},
        )
        with self._lock:
            self._spans.append(span)
        return span

    def instant(
        self,
        name: str,
        category: str,
        trace_id: int | None = None,
        time_s: float | None = None,
        attrs: dict | None = None,
    ) -> Span:
        """Record a zero-duration marker event (fault edges, PLI, ...)."""
        stamp = self.clock.now() if time_s is None else float(time_s)
        merged = {"instant": True}
        if attrs:
            merged.update(attrs)
        return self.add_span(
            name,
            category,
            trace_id,
            start_s=stamp,
            end_s=stamp,
            attrs=merged,
        )

    # ------------------------------------------------------------------
    # Frame contexts (one trace per capture sequence)
    # ------------------------------------------------------------------

    def open_frame(self, sequence: int, sim_time_s: float) -> Span:
        """Open the sim-clock root span for one frame's trace."""
        span = Span(
            name=f"frame {sequence}",
            category="frame",
            trace_id=sequence,
            span_id=self._allocate_id(),
            parent_id=None,
            start_s=float(sim_time_s),
            clock=CLOCK_SIM,
            pid=os.getpid(),
            tid=0,
        )
        with self._lock:
            self._spans.append(span)
            self._frame_roots[sequence] = span
        return span

    def close_frame(
        self,
        sequence: int,
        sim_time_s: float,
        status: str = STATUS_OK,
    ) -> None:
        """Close a frame root at its resolution time."""
        span = self._frame_roots.get(sequence)
        if span is None or span.end_s is not None:
            return
        span.end_s = float(sim_time_s)
        span.status = status

    def frame_root(self, sequence: int | None) -> int | None:
        """The frame root's span id (parent for that frame's stages)."""
        if sequence is None:
            return None
        span = self._frame_roots.get(sequence)
        return span.span_id if span is not None else None

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Snapshot of every recorded span."""
        with self._lock:
            return list(self._spans)

    def open_spans(self) -> list[Span]:
        """Spans not yet closed (a finished trace should have none)."""
        with self._lock:
            return [span for span in self._spans if span.end_s is None]

    def finish(self, sim_time_s: float | None = None) -> None:
        """Close any straggler spans with :data:`STATUS_INCOMPLETE`.

        Wall spans close at the wall clock's now; sim spans at
        ``sim_time_s`` (their own start when not given).
        """
        wall_now = self.clock.now()
        with self._lock:
            for span in self._spans:
                if span.end_s is not None:
                    continue
                if span.clock == CLOCK_SIM:
                    span.end_s = span.start_s if sim_time_s is None else float(sim_time_s)
                else:
                    span.end_s = wall_now
                span.status = STATUS_INCOMPLETE

