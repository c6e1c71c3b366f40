"""The SFU node: ingest one uplink stream, forward N tailored downlinks.

Per frame the node runs two phases, called in turn by
:meth:`repro.sfu.conference.ConferenceDriver.tick_steps`:

- **ingest** -- cache the union-culled geometry and encoded sizes of
  the sender's single uplink stream (one encode per frame, regardless
  of receiver count);
- **forward** -- read every receiver's share of the cached union
  geometry out of the frame's receivers x cameras visibility table
  (:class:`~repro.perf.culling.CullCache`; the union cull built it a
  moment earlier from the same predicted frustums, so no frustum is
  tested twice and receivers never see pixels outside their own view),
  then for every receiver: pick a degradation-ladder tier that fits the
  receiver's bandwidth estimate and offer the burst down the receiver's
  emulated downlink.  The depth/color split is the sender's: a node
  that never re-encodes cannot re-split a stream.

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
from repro.core.config import FRAME_INTERVAL_S, GUARD_BAND_M, SessionConfig
from repro.core.sender import SenderResult
from repro.geometry.camera import RGBDCamera
from repro.geometry.frustum import Frustum
from repro.perf.culling import CullCache
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
    union_points: int
    rung: int
    bytes: int
    # Last delivered packet's arrival; None with no downlink or all lost.
    delivery_time_s: float | None = None


@dataclass
class SFUTick:
    """One frame's trip through the node: its uplink and forwards."""

    frame: MultiViewFrame
    uplink: SenderResult | None
    now: float
    target_rate_bps: float
    horizon_s: float
    decisions: dict[str, ForwardDecision] | None = None

    @property
    def sequence(self) -> int:
        return self.frame.sequence


class SFUNode:
    """Selective forwarding node for one conference."""

    def __init__(
        self,
        cameras: list[RGBDCamera],
        config: SessionConfig,
        device: ViewingDevice | None = None,
        downlinks: DownlinkSet | None = None,
    ) -> None:
        self.cameras = cameras
        self.config = config
        self.device = device or ViewingDevice()
        # One seat per receiver, join order: the iteration order of
        # every frame, which keeps churned runs byte-deterministic.
        self.receivers: dict[str, ReceiverState] = {}
        self.downlinks = downlinks
        self.cull_cache = CullCache()
        # Frame-scoped state written by ingest, read by forward.
        self._cached_sequence: int | None = None
        self._cached_uplink: SenderResult | None = None
        self._frame_frustums: dict[str, Frustum] = {}
        # The same frustums as one (R, 6, 4) stack, row r belonging to
        # the r-th key of _frame_frustums: the visibility table's key.
        self._frame_planes = np.empty((0, 6, 4))
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
        # Rows are positional: forget the whole frame's prediction
        # rather than leave the stack one row longer than the roster.
        self._frame_frustums = {}

    def observe_pose(self, name, pose, timestamp_s: float) -> None:
        """Fold in one receiver's delayed pose report."""
        self.receivers[name].predictor.observe(pose, timestamp_s)

    # ------------------------------------------------------------------
    # Frame phases
    # ------------------------------------------------------------------

    def predicted_frustums(self, sequence: int, horizon_s: float) -> dict[str, Frustum]:
        """Per-receiver predicted frustums for this frame (memoized).

        Ready receivers only, join order.  All of them are extrapolated,
        rotated and turned into guard-banded plane rows in one pass; the
        returned frustums wrap the rows of that one stack, which is also
        what :meth:`forward` looks the frame's visibility table up by.
        """
        if sequence != self._cached_sequence or not self._frame_frustums:
            ready = [seat for seat in self.receivers.values() if seat.predictor.ready]
            poses = [seat.predictor.predict_vector(horizon_s) for seat in ready]
            self._frame_planes = guarded_planes(
                self.device, GUARD_BAND_M, np.array(poses).reshape(-1, 6)
            )
            self._frame_frustums = {
                seat.name: Frustum.of_unit_rows(rows)
                for seat, rows in zip(ready, self._frame_planes)
            }
            self._cached_sequence = sequence
        return self._frame_frustums

    def ingest(self, frame: MultiViewFrame, uplink: SenderResult | None, now: float) -> None:
        """Cache one frame's union-culled uplink stream for forwarding,
        and start the cull cache on its capture (a no-op when the union
        cull already did)."""
        self.cull_cache.begin_frame(frame)
        self._cached_uplink = uplink
        self._cached_sequence = frame.sequence
        self.frames_ingested += 1
        if uplink is not None:
            self.uplink_bytes += uplink.total_bytes

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

    def _visible_points(self, source: MultiViewFrame) -> list[int]:
        """Every warm receiver's point count of the union, in one read of
        the frame's visibility table (built by the union cull a moment
        ago; rebuilt here only if nobody culled with this cache)."""
        depths = [view.depth_mm for view in source.views]
        inside = self.cull_cache.visibility(self.cameras, depths, self._frame_planes)
        seen = inside & (np.stack(depths) > 0)
        return seen.reshape(len(seen), -1).sum(axis=1).tolist()

    def forward(
        self,
        now: float,
        horizon_s: float,
        target_rate_bps: float,
    ) -> dict[str, ForwardDecision]:
        """Forward the cached frame to every receiver, join order."""
        uplink = self._cached_uplink
        decisions: dict[str, ForwardDecision] = {}
        if uplink is None:
            return decisions
        source = uplink.culled_multiview
        union_points = source.total_points()
        uplink_bytes = uplink.total_bytes
        nothing_sent = uplink.empty or union_points == 0 or uplink_bytes == 0
        frustums = self.predicted_frustums(uplink.sequence, horizon_s)
        rows: dict[str, int] = {}
        kept_points = None
        if frustums and not uplink.empty:
            kept_points = self._visible_points(source)
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
                union_points=union_points,
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
    # Observability / lifecycle
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

    def close(self) -> None:
        """Drop frame-scoped geometry and per-receiver transports."""
        self._cached_uplink = None
        self._frame_frustums = {}
        self.cull_cache.end_frame()
