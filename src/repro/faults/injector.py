"""Deterministic execution of a :class:`repro.faults.plan.FaultPlan`.

The injector is pure mechanism: the session asks it questions
("does this packet survive?", "is camera 3 alive at t=1.2s?") and it
answers from the plan plus seeded RNG streams.  Each fault family
draws from its own :func:`numpy.random.default_rng` stream, so adding
faults of one kind never perturbs the draws of another -- the property
that makes chaos runs byte-for-byte reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from repro.codec.frame import HEADER_BYTES
from repro.faults.plan import BurstLossWindow, FaultPlan
from repro.transport.packet import Packet

__all__ = ["GilbertElliott", "FaultInjector"]


class GilbertElliott:
    """Two-state Markov loss chain (good/bad), stepped once per packet."""

    def __init__(self, window: BurstLossWindow, rng: np.random.Generator) -> None:
        self.window = window
        self._rng = rng
        self._bad = False

    def step(self) -> bool:
        """Advance one packet; returns True if the packet is lost."""
        if self._bad:
            if self._rng.random() < self.window.p_exit:
                self._bad = False
        else:
            if self._rng.random() < self.window.p_enter:
                self._bad = True
        if not self._bad:
            return False
        return self._rng.random() < self.window.loss_in_bad


class FaultInjector:
    """Answers fault queries for one session replay, deterministically."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # Independent seeded streams per fault family.
        self._burst_rng = np.random.default_rng(plan.seed)
        self._corrupt_rng = np.random.default_rng(plan.seed + 1)
        self._chains = [
            GilbertElliott(window, self._burst_rng) for window in plan.burst_loss
        ]
        self._stale_views: dict[int, RGBDFrame] = {}
        self._encode_fail_sequences = {f.sequence for f in plan.encoder_faults}
        self._corrupt_sequences = {f.sequence for f in plan.corrupted_frames}
        self.link_fault_drops = 0

    def metrics_into(self, registry) -> None:
        """Fold injector counters into a ``repro.obs`` registry."""
        registry.counter("faults.link_fault_drops").inc(self.link_fault_drops)

    # ------------------------------------------------------------------
    # Capture layer
    # ------------------------------------------------------------------

    def camera_modes(self, t: float, num_cameras: int) -> dict[int, str]:
        """Active fault mode per affected camera at time ``t``."""
        modes: dict[int, str] = {}
        for fault in self.plan.camera_faults:
            if fault.camera_id < num_cameras and fault.active(t):
                modes[fault.camera_id] = fault.mode
        return modes

    def apply_camera_faults(
        self, frame: MultiViewFrame, t: float
    ) -> tuple[MultiViewFrame, dict[int, str]]:
        """Substitute faulted views; returns the frame plus active modes.

        Healthy views refresh the stale-frame cache, a "stale" camera
        replays its last healthy view, and a "dropout" camera yields a
        zeroed view (no valid depth, hence no contributed points --
        downstream fusion simply sees fewer live cameras).
        """
        modes = self.camera_modes(t, frame.num_cameras)
        if not modes:
            for view in frame.views:
                self._stale_views[view.camera_id] = view
            return frame, modes
        views = []
        for view in frame.views:
            mode = modes.get(view.camera_id)
            if mode is None:
                self._stale_views[view.camera_id] = view
                views.append(view)
            elif mode == "stale" and view.camera_id in self._stale_views:
                cached = self._stale_views[view.camera_id]
                views.append(
                    RGBDFrame(
                        cached.color,
                        cached.depth_mm,
                        camera_id=view.camera_id,
                        sequence=view.sequence,
                        timestamp_s=view.timestamp_s,
                    )
                )
            else:  # dropout, or stale with nothing cached yet
                views.append(
                    RGBDFrame(
                        np.zeros_like(view.color),
                        np.zeros_like(view.depth_mm),
                        camera_id=view.camera_id,
                        sequence=view.sequence,
                        timestamp_s=view.timestamp_s,
                    )
                )
        return (
            MultiViewFrame(views, sequence=frame.sequence, timestamp_s=frame.timestamp_s),
            modes,
        )

    # ------------------------------------------------------------------
    # Link layer (plugged into EmulatedLink.fault_hook)
    # ------------------------------------------------------------------

    def link_drop(self, packet: Packet) -> bool:
        """Whether the link faults swallow this packet."""
        t = packet.send_time_s
        for outage in self.plan.link_outages:
            if outage.active(t):
                self.link_fault_drops += 1
                return True
        for chain in self._chains:
            if chain.window.active(t) and chain.step():
                self.link_fault_drops += 1
                return True
        return False

    def link_outage_active(self, t: float) -> bool:
        """Whether any hard outage covers time ``t`` (for event edges)."""
        return any(outage.active(t) for outage in self.plan.link_outages)

    def burst_loss_active(self, t: float) -> bool:
        """Whether any burst-loss window covers time ``t``."""
        return any(window.active(t) for window in self.plan.burst_loss)

    # ------------------------------------------------------------------
    # Encoder / bitstream layers
    # ------------------------------------------------------------------

    def encode_fails(self, sequence: int) -> bool:
        """Whether the encoder fails at this capture tick."""
        return sequence in self._encode_fail_sequences

    def corrupts_pair(self, sequence: int) -> bool:
        """Whether this frame pair reaches the receiver corrupted."""
        return sequence in self._corrupt_sequences

    def corrupt_frame(self, data: bytes) -> bytes:
        """Return a mangled copy of a serialized frame.

        The header stays intact; the payload region is truncated and
        one deterministic byte flipped, which breaks both the plane
        framing and the entropy payload -- and, cut short of the length
        the header declares, the frame no longer parses.
        """
        header, payload = data[:HEADER_BYTES], data[HEADER_BYTES:]
        if len(payload) <= 1:
            return header
        cut = max(1, len(payload) // 2)
        index = int(self._corrupt_rng.integers(0, cut))
        return header + payload[:index] + bytes([payload[index] ^ 0xFF]) + payload[index + 1 : cut]
