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
from repro.prediction.predictor import ViewingDevice, guarded_planes
from repro.sfu.receivers import ReceiverBook, ReceiverState
from repro.transport.downlink import DownlinkSend, DownlinkSet
from repro.transport.gcc import GCCConfig, GoogleCongestionControl
from repro.transport.traces import BandwidthTrace

__all__ = ["SFUNode", "ForwardDecision", "SFUTick", "TIER_SCALES"]

# Degradation-ladder tiers the node can forward at: fraction of the
# receiver's full (kept-culled) byte size.  Rung 0 forwards every kept
# tile; deeper rungs drop refinement tiles, mirroring the session
# watchdog's half-fps -> coarse-voxel -> chroma-lite ladder shape.
TIER_SCALES = (1.0, 0.65, 0.4, 0.25)


@dataclass
class ForwardDecision:
    """What the node forwarded to one receiver for one frame."""

    receiver: str
    sequence: int
    kept_points: int
    union_points: int
    rung: int
    rate_bps: float
    bytes: int
    delivery_time_s: float | None = None
    downlink: DownlinkSend | None = None

    @property
    def kept_fraction(self) -> float:
        """Fraction of union points inside this receiver's frustum."""
        if self.union_points == 0:
            return 0.0
        return self.kept_points / self.union_points


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
        self.book = ReceiverBook(self.device)
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

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def receiver_names(self) -> list[str]:
        """Receivers currently served, in join order."""
        return self.book.names

    def add_receiver(
        self, name: str, downlink_trace: BandwidthTrace | None = None
    ) -> ReceiverState:
        """A receiver joins: cold predictor, fresh downlink + GCC."""
        state = self.book.add(name)
        self.receivers_peak = max(self.receivers_peak, len(self.book))
        if self.downlinks is not None:
            link = self.downlinks.add(name, downlink_trace)
            # Seed the estimate at half the downlink's mean capacity,
            # the same conservative start the two-party session uses.
            initial = max(0.5 * link.trace.mean_mbps * 1e6, 1e5)
            state.gcc = GoogleCongestionControl(
                GCCConfig(initial_rate_bps=initial, min_rate_bps=min(1e6, initial))
            )
        return state

    def remove_receiver(self, name: str) -> ReceiverState:
        """A receiver leaves: drop its predictor and downlink."""
        state = self.book.remove(name)
        if self.downlinks is not None and name in self.downlinks:
            self.downlinks.remove(name)
        # Rows are positional: forget the whole frame's prediction
        # rather than leave the stack one row longer than the roster.
        self._frame_frustums = {}
        return state

    def observe_pose(self, name, pose, timestamp_s: float) -> None:
        """Fold in one receiver's delayed pose report."""
        self.book.observe_pose(name, pose, timestamp_s)

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
            ready = self.book.ready_states()
            poses = [state.predictor.predict_vector(horizon_s) for state in ready]
            self._frame_planes = guarded_planes(
                self.device, GUARD_BAND_M, np.array(poses).reshape(-1, 6)
            )
            self._frame_frustums = {
                state.name: Frustum.of_unit_rows(rows)
                for state, rows in zip(ready, self._frame_planes)
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

    def _pick_rung(self, state: ReceiverState, full_bytes: int, budget_bytes: float) -> int:
        """Deepest-necessary tier, ladder-stepped at most one rung/frame."""
        ideal = len(TIER_SCALES) - 1
        for rung, scale in enumerate(TIER_SCALES):
            if full_bytes * scale <= budget_bytes:
                ideal = rung
                break
        # Hysteresis: move toward the ideal one rung at a time, the
        # same +-1 stepping contract the session watchdog's ladder has.
        if ideal > state.rung:
            return state.rung + 1
        if ideal < state.rung:
            return state.rung - 1
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
        sequence = uplink.sequence
        source = uplink.culled_multiview
        union_points = source.total_points()
        uplink_bytes = uplink.total_bytes
        nothing_sent = uplink.empty or union_points == 0 or uplink_bytes == 0
        frustums = self.predicted_frustums(sequence, horizon_s)
        rows: dict[str, int] = {}
        kept_points = None
        if frustums and not uplink.empty:
            kept_points = self._visible_points(source)
            rows = {name: row for row, name in enumerate(frustums)}

        downlinks = self.downlinks
        for state in self.book:
            name = state.name
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
            rate = state.estimated_rate_bps(target_rate_bps)
            budget_bytes = max(rate / 8.0 * FRAME_INTERVAL_S, 2.0)
            if full_bytes > 0:
                rung = self._pick_rung(state, full_bytes, budget_bytes)
                size = max(1, int(full_bytes * TIER_SCALES[rung]))
            else:
                rung = state.rung
                size = 0
            send: DownlinkSend | None = None
            if downlinks is not None and size > 0 and name in downlinks:
                send = state.offer_downlink(downlinks, now, size)
            decision = ForwardDecision(
                receiver=name,
                sequence=sequence,
                kept_points=kept,
                union_points=union_points,
                rung=rung,
                rate_bps=rate,
                bytes=size,
                delivery_time_s=send.delivery_time_s if send is not None else None,
                downlink=send,
            )
            decisions[name] = decision
            self._account(state, decision)
        return decisions

    def _account(self, state: ReceiverState, decision: ForwardDecision) -> None:
        """Fold one forward into the receiver's book and the node's byte
        count."""
        state.rung = decision.rung
        state.last_kept_fraction = decision.kept_fraction
        state.frames_forwarded += 1
        state.bytes_forwarded += decision.bytes
        self.forwarded_bytes += decision.bytes

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------

    def metrics_into(self, registry) -> None:
        """Export ``sfu.*`` metrics into a MetricsRegistry."""
        registry.counter("sfu.frames_ingested").inc(self.frames_ingested)
        registry.counter("sfu.uplink_bytes").inc(self.uplink_bytes)
        registry.counter("sfu.forwarded_bytes").inc(self.forwarded_bytes)
        registry.counter("sfu.receiver_joins").inc(self.book.total_joins)
        registry.counter("sfu.receiver_leaves").inc(self.book.total_leaves)
        registry.gauge("sfu.receivers").set(len(self.book))
        registry.gauge("sfu.receivers_peak").set(self.receivers_peak)
        for state in self.book:
            prefix = f"sfu.rx.{state.name}"
            registry.counter(f"{prefix}.frames").inc(state.frames_forwarded)
            registry.counter(f"{prefix}.bytes").inc(state.bytes_forwarded)
            registry.gauge(f"{prefix}.rung").set(state.rung)
            registry.gauge(f"{prefix}.kept_fraction").set(state.last_kept_fraction)
        if self.downlinks is not None:
            self.downlinks.metrics_into(registry)
        self.cull_cache.counters.metrics_into(registry)

    def close(self) -> None:
        """Drop frame-scoped geometry and per-receiver transports."""
        self._cached_uplink = None
        self._frame_frustums = {}
        self.cull_cache.end_frame()
