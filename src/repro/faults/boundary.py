"""Fault injection at stage boundaries.

Each fault family attaches at one seam -- the boundary between two
stages -- and the stage body on that side of the seam makes the call
(so the fault's cost sits inside that stage's time and span):

- **capture boundary** (the capture stage, on the frame it just
  captured): camera dropout/stale substitution, plus the per-camera
  window-edge events;
- **encode boundary** (the encode stage, before encoding): injected
  encoder failures;
- **delivery boundary** (the decode stage, before decoding): corruption
  of the reassembled color buffer of a pair that reached the receiver;
- **tick boundary**: link outage / burst-loss window-edge events (the
  drops themselves stay inside the link's ``fault_hook``).

The boundary object owns all the event bookkeeping (active camera
modes, outage/burst edge state) so the session loop carries none of
it.  All methods are no-ops when no injector is attached, keeping the
clean path byte-identical to a no-plan run.
"""

from __future__ import annotations

from repro.capture.rgbd import MultiViewFrame
from repro.core.stats import FaultEvent
from repro.faults.injector import FaultInjector

__all__ = ["StageFaultBoundary"]


class StageFaultBoundary:
    """Binds one session's injector and event log to stage boundaries."""

    def __init__(
        self, injector: FaultInjector | None, events: list[FaultEvent]
    ) -> None:
        self.injector = injector
        self.events = events
        self._active_camera_modes: dict[int, str] = {}
        self._outage_active = False
        self._burst_active = False

    # ------------------------------------------------------------------
    # Tick boundary: link-level window edges
    # ------------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Record link outage / burst-loss window edges crossing ``now``."""
        if self.injector is None:
            return
        outage_now = self.injector.link_outage_active(now)
        if outage_now != self._outage_active:
            self.events.append(
                FaultEvent(
                    time_s=now,
                    category="link_outage" if outage_now else "link_outage_end",
                    detail="link outage window",
                    recovered=not outage_now,
                )
            )
            self._outage_active = outage_now
        burst_now = self.injector.burst_loss_active(now)
        if burst_now != self._burst_active:
            self.events.append(
                FaultEvent(
                    time_s=now,
                    category="burst_loss" if burst_now else "burst_loss_end",
                    detail="Gilbert-Elliott burst-loss window",
                    recovered=not burst_now,
                )
            )
            self._burst_active = burst_now

    # ------------------------------------------------------------------
    # Capture boundary
    # ------------------------------------------------------------------

    def apply_camera_faults(
        self, frame: MultiViewFrame, now: float
    ) -> MultiViewFrame:
        """Substitute faulted views and log per-camera window edges."""
        if self.injector is None:
            return frame
        frame, modes = self.injector.apply_camera_faults(frame, now)
        for camera_id, mode in modes.items():
            if self._active_camera_modes.get(camera_id) != mode:
                self.events.append(
                    FaultEvent(
                        time_s=now,
                        category=f"camera_{mode}",
                        detail=f"camera {camera_id} {mode} window",
                        sequence=frame.sequence,
                    )
                )
        for camera_id in self._active_camera_modes:
            if camera_id not in modes:
                self.events.append(
                    FaultEvent(
                        time_s=now,
                        category="camera_recovered",
                        detail=f"camera {camera_id} healthy again",
                        sequence=frame.sequence,
                        recovered=True,
                    )
                )
        self._active_camera_modes = modes
        return frame

    # ------------------------------------------------------------------
    # Encode boundary
    # ------------------------------------------------------------------

    def encode_fails(self, sequence: int) -> bool:
        """Whether an injected encoder failure fires at this tick."""
        return self.injector is not None and self.injector.encode_fails(sequence)

    # ------------------------------------------------------------------
    # Delivery boundary (pre-decode)
    # ------------------------------------------------------------------

    def corrupt_delivered_pair(self, color: bytes, sequence: int, now: float) -> bytes:
        """Corrupt a delivered pair's color buffer when planned."""
        if self.injector is None or not self.injector.corrupts_pair(sequence):
            return color
        corrupted = self.injector.corrupt_frame(color)
        self.events.append(
            FaultEvent(
                time_s=now,
                category="corrupt_frame",
                detail="injected bitstream corruption",
                sequence=sequence,
            )
        )
        return corrupted
