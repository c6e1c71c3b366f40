"""Multi-way conferencing: one sender, several receivers.

The paper builds two-way conferencing and notes that "multi-way
conferencing can be built using LiVo, but presents opportunities for
optimizations (e.g., across receivers from a single sender) that we
leave to future work" (section 3.1).  This module implements the
design space:

- **unicast**: one full sender pipeline per receiver -- each receiver
  gets a stream culled to exactly its own predicted frustum.  Quality
  is per-receiver optimal; encoding cost and uplink bandwidth scale
  linearly with receivers.
- **shared** (the cross-receiver optimization): cull once to the
  *union* of all receivers' guard-banded frustums and encode a single
  pair of streams every receiver consumes.  One encode, one uplink
  stream; each receiver re-culls locally at render time (which LiVo's
  receiver does anyway, appendix A.1).
- **sfu**: the shared uplink stream terminates at a selective
  forwarding node (:class:`repro.sfu.node.SFUNode`) that holds all
  per-receiver state and re-culls/tier-selects *once at the node*, so
  each downlink carries only that receiver's view at that receiver's
  rate.  Uplink cost equals shared mode; downlink cost approaches
  unicast quality without N sender pipelines.

``MultiwaySender`` is a thin compatibility shim over the per-receiver
book and the SFU node: the ``shared`` and ``unicast`` code paths are
byte-identical to the pre-SFU implementation (asserted by the
``multiparty-churn`` golden and tests), and ``mode="sfu"`` routes
through :mod:`repro.sfu`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.capture.rgbd import MultiViewFrame
from repro.core.config import SessionConfig
from repro.core.sender import LiVoSender, SenderResult
from repro.geometry.camera import RGBDCamera
from repro.geometry.frustum import Frustum
from repro.prediction.pose import Pose
from repro.prediction.predictor import FrustumPredictor, ViewingDevice
from repro.sfu.receivers import ReceiverBook

__all__ = ["MultiwaySender", "MultiwayResult", "cull_views_union"]

MODES = ("shared", "unicast", "sfu")


def cull_views_union(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
    frustums: list[Frustum],
    cache=None,
) -> MultiViewFrame:
    """Zero pixels outside *every* given frustum (keep the union).

    ``cache`` is an optional :class:`repro.perf.culling.CullCache`:
    with it, per-camera world-to-camera transforms, per-pixel point
    grids, and per-(frustum, camera) plane transforms are memoized and
    shared with any same-frame re-cull (the SFU's per-receiver pass).
    Outputs are byte-identical with or without the cache.
    """
    if not frustums:
        raise ValueError("need at least one frustum")
    if len(frame.views) != len(cameras):
        raise ValueError("views/cameras mismatch")
    if cache is not None:
        cache.begin_frame(frame.sequence)
    culled_views = []
    for view, camera in zip(frame.views, cameras):
        if cache is not None:
            points, valid = cache.local_points(camera, view.depth_mm)
        else:
            points, valid = camera.local_points(view.depth_mm)
            # Hoisted per camera: the extrinsics property recomputes the
            # 4x4 inversion on every access, so one lookup serves every
            # frustum below instead of one inversion per (view, frustum).
            world_to_camera = camera.extrinsics.world_to_camera
        keep = np.zeros(valid.shape, dtype=bool)
        for frustum in frustums:
            if cache is not None:
                local = cache.transformed_frustum(frustum, camera)
            else:
                local = frustum.transformed(world_to_camera)
            keep |= local.contains_grid(points)
            if keep.all():
                break
        culled_views.append(view.culled(keep & valid))
    return MultiViewFrame(
        culled_views, sequence=frame.sequence, timestamp_s=frame.timestamp_s
    )


@dataclass
class MultiwayResult:
    """Outcome of one multi-way capture: per-receiver, shared, or SFU."""

    mode: str
    per_receiver: dict[str, SenderResult] | None
    shared: SenderResult | None
    # SFU mode only: per-receiver forward decisions from the node
    # (:class:`repro.sfu.node.ForwardDecision`), join order.
    downlinks: dict[str, object] | None = field(default=None)

    @property
    def total_bytes(self) -> int:
        """Uplink bytes this capture costs across all streams."""
        if self.per_receiver is not None:
            return sum(
                result.total_bytes
                for result in self.per_receiver.values()
                if result is not None
            )
        assert self.shared is not None
        return self.shared.total_bytes

    @property
    def downlink_bytes(self) -> int:
        """Bytes forwarded down all receiver links (SFU mode; else 0)."""
        if self.downlinks is None:
            return 0
        return sum(decision.bytes for decision in self.downlinks.values())

    @property
    def encoder_runs(self) -> int:
        """How many (color+depth) encoder invocations actually ran.

        Empty-capture short-circuits (``SenderResult.empty``) never
        touch the encoders, and failed encodes return None -- neither
        counts, so byte/encode accounting matches what executed.
        """
        if self.per_receiver is not None:
            return 2 * sum(
                1
                for result in self.per_receiver.values()
                if result is not None and not result.empty
            )
        assert self.shared is not None
        return 0 if self.shared.empty else 2


class MultiwaySender:
    """A LiVo sender serving several receivers at once."""

    def __init__(
        self,
        cameras: list[RGBDCamera],
        config: SessionConfig,
        receiver_names: list[str],
        mode: str = "shared",
        device: ViewingDevice | None = None,
        downlink_traces: dict | None = None,
        default_downlink_trace=None,
        downlink_config=None,
    ) -> None:
        if not receiver_names:
            raise ValueError("need at least one receiver")
        if len(set(receiver_names)) != len(receiver_names):
            raise ValueError("receiver names must be unique")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.cameras = cameras
        self.config = config
        self.mode = mode
        self.device = device or ViewingDevice()
        self._downlink_traces = dict(downlink_traces or {})
        self.node = None
        if mode == "sfu":
            # Imported lazily: repro.sfu's fleet harness drives this
            # module, so a top-level import would be circular.
            from repro.sfu.node import SFUNode
            from repro.transport.downlink import DownlinkSet
            from repro.transport.link import LinkConfig

            downlinks = None
            if default_downlink_trace is not None or self._downlink_traces:
                default = default_downlink_trace
                if default is None:
                    default = next(iter(self._downlink_traces.values()))
                downlinks = DownlinkSet(
                    default, downlink_config or LinkConfig(seed=config.link.seed)
                )
            self.node = SFUNode(cameras, config, self.device, downlinks=downlinks)
            self._book = self.node.book
        else:
            self._book = ReceiverBook(self.device, config.guard_band_m)
        if mode == "unicast":
            self._senders = {
                name: LiVoSender(cameras, config, self.device, receiver_id=name)
                for name in receiver_names
            }
            self._shared_sender = None
        else:
            self._senders = {}
            self._shared_sender = LiVoSender(cameras, config, self.device)
        for name in receiver_names:
            if mode == "sfu":
                self.node.add_receiver(name, self._downlink_traces.get(name))
            else:
                self._book.add(name)

    @property
    def predictors(self) -> dict[str, FrustumPredictor]:
        """Per-receiver frustum predictors (legacy surface), join order."""
        return self._book.predictors

    @property
    def receiver_names(self) -> list[str]:
        """Receivers currently served."""
        return self._book.names

    def add_receiver(self, name: str, now: float = 0.0) -> None:
        """A receiver joins the conference mid-session.

        It starts with a cold frustum predictor (no pose history), so
        in shared/sfu modes the union cull simply ignores it until its
        predictor warms up -- exactly what a late joiner looks like.
        """
        if self.mode == "sfu":
            self.node.add_receiver(name, self._downlink_traces.get(name), now=now)
            return
        self._book.add(name, joined_at_s=now)
        if self.mode == "unicast":
            self._senders[name] = LiVoSender(
                self.cameras, self.config, self.device, receiver_id=name
            )

    def remove_receiver(self, name: str) -> None:
        """A receiver leaves the conference mid-session."""
        if self.mode == "sfu":
            self.node.remove_receiver(name)
            return
        self._book.remove(name)
        if self.mode == "unicast":
            self._senders.pop(name).close()

    def close(self) -> None:
        """Close every underlying sender and the node."""
        for sender in self._senders.values():
            sender.close()
        if self._shared_sender is not None:
            self._shared_sender.close()
        if self.node is not None:
            self.node.close()

    def observe_pose(self, receiver: str, pose: Pose, timestamp_s: float) -> None:
        """Fold in a pose report from one receiver."""
        self._book.observe_pose(receiver, pose, timestamp_s)
        if self.mode == "unicast":
            self._senders[receiver].observe_pose(pose, timestamp_s)

    def process(
        self,
        frame: MultiViewFrame,
        target_rate_bps: float,
        prediction_horizon_s: float,
    ) -> MultiwayResult:
        """Run one capture for all receivers.

        In unicast mode each receiver's sender gets the full target rate
        on its own (virtual) uplink; in shared mode the single stream
        gets it once; in sfu mode the single uplink stream is ingested
        by the node, which forwards per-receiver downlinks.
        """
        if self.mode == "unicast":
            results = {
                name: sender.process(frame, target_rate_bps, prediction_horizon_s)
                for name, sender in self._senders.items()
            }
            return MultiwayResult("unicast", results, None)

        assert self._shared_sender is not None
        if self.mode == "sfu":
            return self._process_sfu(frame, target_rate_bps, prediction_horizon_s)

        ready = [p for p in self.predictors.values() if p.ready]
        if ready:
            frustums = [
                predictor.predict_frustum(prediction_horizon_s) for predictor in ready
            ]
            culled = cull_views_union(frame, self.cameras, frustums)
        else:
            culled = frame
        # The shared sender's internal predictor is never fed poses, so
        # it stays not-ready and will not re-cull the pre-culled frame.
        shared = self._shared_sender.process(
            culled, target_rate_bps, prediction_horizon_s
        )
        return MultiwayResult("shared", None, shared)

    def _process_sfu(
        self,
        frame: MultiViewFrame,
        target_rate_bps: float,
        prediction_horizon_s: float,
    ) -> MultiwayResult:
        """One capture through uplink encode -> node ingest -> forward."""
        node = self.node
        now = frame.timestamp_s
        frustums = node.predicted_frustums(frame.sequence, prediction_horizon_s)
        if frustums:
            culled = cull_views_union(
                frame, self.cameras, list(frustums.values()), cache=node.cull_cache
            )
        else:
            culled = frame
        uplink = self._shared_sender.process(
            culled, target_rate_bps, prediction_horizon_s
        )
        node.ingest(frame, uplink, now)
        decisions = (
            node.forward(now, prediction_horizon_s, target_rate_bps)
            if uplink is not None
            else {}
        )
        return MultiwayResult("sfu", None, uplink, downlinks=decisions)
