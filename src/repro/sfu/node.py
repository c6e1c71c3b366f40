"""The SFU node: forward one uplink stream as N tailored downlinks.

Per frame the node is called twice by
:meth:`repro.sfu.conference.ConferenceDriver.tick_steps`:

- **predict** -- :meth:`SFUNode.predicted_frustums` extrapolates every
  warm receiver's pose and returns the guard-banded frustums, which the
  driver hands to the union cull;
- **forward** -- :meth:`SFUNode.forward` takes the frame's union-culled
  uplink (one encode per frame, regardless of receiver count) and the
  receivers x cameras visibility table the union cull built from those
  same frustums, reads every receiver's share of the union out of the
  table (so no frustum is tested twice and receivers never see pixels
  outside their own view), and then for every receiver picks a
  degradation-ladder tier that fits its bandwidth estimate and offers
  the burst down its emulated downlink.  The depth/color split is the
  sender's: a node that never re-encodes cannot re-split a stream.

The node holds its receivers' seats and running counts, never a frame:
what one frame needs is passed in and dropped on return.

Forwarding is selective, not transcoding: the node never re-encodes.
A receiver's downlink bytes are the kept fraction of the uplink tiles
scaled by its tier -- the selective-tile model SLAMCast's multi-client
architecture uses, which is what makes an SFU cheap enough to run
hundreds of conferences per core (``repro.sfu.fleet``).

Determinism: receivers are processed in join order, a frame's frustum
predictions are made once, for all ready receivers together, and all
tier/byte arithmetic is integer -- a conference replays byte-identically
under churn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.capture.rgbd import MultiViewFrame
from repro.core.config import FRAME_INTERVAL_S, GUARD_BAND_M
from repro.core.sender import SenderResult
from repro.geometry.frustum import Frustum
from repro.prediction.pose import PoseTrace
from repro.prediction.predictor import FrustumPredictor, ViewingDevice, guarded_planes
from repro.transport.downlink import DownlinkSend, DownlinkSet
from repro.transport.gcc import GCCConfig, GoogleCongestionControl
from repro.transport.traces import BandwidthTrace

__all__ = ["SFUNode", "ReceiverState", "ForwardDecision", "SFUTick", "TIER_SCALES"]

# Degradation-ladder tiers the node can forward at: fraction of the
# receiver's full (kept-culled) byte size.  Rung 0 forwards every kept
# tile; deeper rungs drop refinement tiles, mirroring the session
# watchdog's half-fps -> coarse-voxel -> chroma-lite ladder shape.
TIER_SCALES = (1.0, 0.65, 0.4, 0.25)


@dataclass
class ReceiverState:
    """One receiver's seat on the node."""

    name: str
    predictor: FrustumPredictor
    # Per-downlink congestion estimate; None when the node emulates no
    # downlinks.
    gcc: GoogleCongestionControl | None = None
    # Degradation-ladder rung the node last chose (0 = full tier).
    rung: int = 0
    # The pose feed the receiver reports from; the driver sets it at join.
    pose_trace: PoseTrace | None = None


@dataclass
class ForwardDecision:
    """What the node forwarded to one receiver for one frame."""

    kept_points: int
    rung: int
    bytes: int
    # Last delivered packet's arrival; None with no downlink or all lost.
    delivery_time_s: float | None = None


@dataclass
class SFUTick:
    """One frame's trip through the node: its uplink and forwards."""

    frame: MultiViewFrame
    uplink: SenderResult | None
    decisions: dict[str, ForwardDecision]

    @property
    def sequence(self) -> int:
        return self.frame.sequence


class SFUNode:
    """Selective forwarding node for one conference."""

    def __init__(
        self,
        device: ViewingDevice | None = None,
        downlinks: DownlinkSet | None = None,
    ) -> None:
        self.device = device or ViewingDevice()
        # One seat per receiver, join order: the iteration order of
        # every frame, which keeps churned runs byte-deterministic.
        self.receivers: dict[str, ReceiverState] = {}
        self.downlinks = downlinks
        # Aggregate counters for metrics_into.
        self.frames_ingested = 0
        self.uplink_bytes = 0
        self.forwarded_bytes = 0
        self.receivers_peak = 0
        self.total_joins = 0
        self.total_leaves = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def receiver_names(self) -> list[str]:
        """Receivers currently served, in join order."""
        return list(self.receivers)

    def add_receiver(
        self, name: str, downlink_trace: BandwidthTrace | None = None
    ) -> ReceiverState:
        """A receiver joins: cold predictor, fresh downlink + GCC.  A name
        already present raises ValueError."""
        if name in self.receivers:
            raise ValueError(f"receiver {name!r} already present")
        seat = self.receivers[name] = ReceiverState(name, FrustumPredictor(self.device))
        self.total_joins += 1
        self.receivers_peak = max(self.receivers_peak, len(self.receivers))
        if self.downlinks is not None:
            link = self.downlinks.add(name, downlink_trace)
            # Seed the estimate at half the downlink's mean capacity,
            # the same conservative start the two-party session uses.
            initial = max(0.5 * link.trace.mean_mbps * 1e6, 1e5)
            seat.gcc = GoogleCongestionControl(
                GCCConfig(initial_rate_bps=initial, min_rate_bps=min(1e6, initial))
            )
        return seat

    def remove_receiver(self, name: str) -> None:
        """A receiver leaves with its predictor and downlink.  A name not
        present raises ValueError."""
        if name not in self.receivers:
            raise ValueError(f"receiver {name!r} not present")
        del self.receivers[name]
        self.total_leaves += 1
        if self.downlinks is not None:
            self.downlinks.remove(name)

    def observe_pose(self, name, pose, timestamp_s: float) -> None:
        """Fold in one receiver's delayed pose report."""
        self.receivers[name].predictor.observe(pose, timestamp_s)

    # ------------------------------------------------------------------
    # Frame phases
    # ------------------------------------------------------------------

    def predicted_frustums(self, horizon_s: float) -> dict[str, Frustum]:
        """Every ready receiver's predicted frustum, join order.

        All of them are extrapolated, rotated and turned into
        guard-banded plane rows in one pass; the returned frustums wrap
        the rows of that one stack.  Pure: a second call between the same
        pose reports returns equal frustums.
        """
        ready = [seat for seat in self.receivers.values() if seat.predictor.ready]
        poses = [seat.predictor.predict_vector(horizon_s) for seat in ready]
        planes = guarded_planes(self.device, GUARD_BAND_M, np.array(poses).reshape(-1, 6))
        return {
            seat.name: Frustum.of_unit_rows(rows) for seat, rows in zip(ready, planes)
        }

    def _pick_rung(self, seat: ReceiverState, full_bytes: int, budget_bytes: float) -> int:
        """Deepest-necessary tier, ladder-stepped at most one rung/frame."""
        ideal = len(TIER_SCALES) - 1
        for rung, scale in enumerate(TIER_SCALES):
            if full_bytes * scale <= budget_bytes:
                ideal = rung
                break
        # Hysteresis: move toward the ideal one rung at a time, the
        # same +-1 stepping contract the session watchdog's ladder has.
        if ideal > seat.rung:
            return seat.rung + 1
        if ideal < seat.rung:
            return seat.rung - 1
        return ideal

    def forward(
        self,
        uplink: SenderResult | None,
        frustums: dict[str, Frustum],
        inside: np.ndarray | None,
        now: float,
        target_rate_bps: float,
    ) -> dict[str, ForwardDecision]:
        """Count one frame's uplink and forward it to every receiver,
        join order.

        ``frustums`` are the frame's :meth:`predicted_frustums` and
        ``inside`` the visibility table the union cull built from them
        (row ``r`` for the ``r``-th frustum; ``None`` when no receiver
        was ready).  A warm receiver's share is its row, masked by the
        uplink's culled depth; a cold one gets the whole union.
        """
        self.frames_ingested += 1
        decisions: dict[str, ForwardDecision] = {}
        if uplink is None:
            return decisions
        uplink_bytes = uplink.total_bytes
        self.uplink_bytes += uplink_bytes
        source = uplink.culled_multiview
        union_points = source.total_points()
        nothing_sent = uplink.empty or union_points == 0 or uplink_bytes == 0
        rows: dict[str, int] = {}
        kept_points = None
        if frustums and not uplink.empty:
            seen = inside & (np.stack([view.depth_mm for view in source.views]) > 0)
            kept_points = seen.reshape(len(seen), -1).sum(axis=1).tolist()
            rows = {name: row for row, name in enumerate(frustums)}

        for name, seat in self.receivers.items():
            row = rows.get(name)
            if nothing_sent:
                kept = 0
                full_bytes = 0
            elif row is None:
                # Cold predictor: the receiver gets the whole union
                # stream until its first pose report lands.
                kept = union_points
                full_bytes = uplink_bytes
            else:
                kept = kept_points[row]
                full_bytes = (
                    math.ceil(uplink_bytes * kept / union_points) if kept else 0
                )
            rate = target_rate_bps
            if seat.gcc is not None:
                rate = min(seat.gcc.target_rate_bps(), rate)
            budget_bytes = max(rate / 8.0 * FRAME_INTERVAL_S, 2.0)
            if full_bytes > 0:
                seat.rung = self._pick_rung(seat, full_bytes, budget_bytes)
                size = max(1, int(full_bytes * TIER_SCALES[seat.rung]))
            else:
                size = 0
            delivery_time_s = None
            if self.downlinks is not None and size > 0:
                delivery_time_s = self.offer_downlink(seat, now, size).delivery_time_s
            decisions[name] = ForwardDecision(
                kept_points=kept,
                rung=seat.rung,
                bytes=size,
                delivery_time_s=delivery_time_s,
            )
            self.forwarded_bytes += size
        return decisions

    def offer_downlink(self, seat: ReceiverState, now: float, size_bytes: int) -> DownlinkSend:
        """Send one forwarded burst down the receiver's link and feed the
        outcome to its GCC the way the two-party channel does: each
        delivered packet's timing, then the burst's loss fraction."""
        send = self.downlinks.send(seat.name, now, size_bytes)
        if seat.gcc is not None and send.packets:
            for arrival, size in zip(send.arrival_times_s, send.delivered_sizes):
                seat.gcc.on_packet_feedback(now, arrival, size)
            seat.gcc.on_loss_report((send.packets - send.delivered_packets) / send.packets)
        return send

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics_into(self, registry) -> None:
        """Export ``sfu.*`` metrics into a MetricsRegistry."""
        registry.counter("sfu.frames_ingested").inc(self.frames_ingested)
        registry.counter("sfu.uplink_bytes").inc(self.uplink_bytes)
        registry.counter("sfu.forwarded_bytes").inc(self.forwarded_bytes)
        registry.counter("sfu.receiver_joins").inc(self.total_joins)
        registry.counter("sfu.receiver_leaves").inc(self.total_leaves)
        registry.gauge("sfu.receivers").set(len(self.receivers))
        registry.gauge("sfu.receivers_peak").set(self.receivers_peak)
        if self.downlinks is not None:
            self.downlinks.metrics_into(registry)
