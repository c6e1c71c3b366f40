"""The conference room, which every multi-party caller opens first.

A :class:`Room` is the shared half of a conference host: one scene, one
:class:`~repro.perf.capture.CachedFrameSource` over the config's camera
ring (one splat render per sequence however many conferences read it),
the simulated receivers' pose traces, the downlink template and the one
seat rule.  The fleet, the service (whose registries take the room as
their session factory), ``repro multiway`` and the scenario runner all
build their conferences from one.
"""

from __future__ import annotations

from repro.capture.dataset import load_video
from repro.core.config import FPS, SessionConfig
from repro.perf.capture import CachedFrameSource
from repro.prediction.pose import user_traces_for_video
from repro.sfu.conference import ConferenceDriver, UnicastBaseline
from repro.transport.downlink import DownlinkSet
from repro.transport.link import LinkConfig
from repro.transport.traces import constant_trace

__all__ = ["Room", "RoomConference"]


class Room:
    """The room ``config`` describes over ``video``.

    Pose traces are ``pose_frames`` long (longer sessions clamp at the
    tail); given ``downlink_mbps``, the downlink template runs ten
    seconds longer.  ``seed`` offsets the link seeds of the sessions
    :meth:`__call__` builds.
    """

    def __init__(self, config: SessionConfig, video: str, pose_frames: int,
                 downlink_mbps: float | None = None, seed: int = 0) -> None:
        _, self.scene = load_video(video, sample_budget=config.scene_sample_budget)
        self.config = config
        self.seed = seed
        self.source = CachedFrameSource.for_config(config, self.scene)
        self.pose_traces = user_traces_for_video(video, pose_frames)
        self.downlink_trace = None
        if downlink_mbps is not None:
            self.downlink_trace = constant_trace(
                downlink_mbps, duration_s=pose_frames / FPS + 10.0
            )

    def pose_trace(self, joins: int):
        """The seat rule: a party's ``joins``-th join (from 0, leaves
        not subtracted) takes this pose trace, round-robin."""
        return self.pose_traces[joins % len(self.pose_traces)]

    def downlinks(self, seed: int) -> DownlinkSet:
        return DownlinkSet(self.downlink_trace, LinkConfig(seed=seed))

    def conference(self, index: int, downlinks: DownlinkSet | None = None):
        """An empty conference: the SFU with ``downlinks``, the shared
        stream without."""
        return RoomConference(index, self, downlinks)

    def unicast(self) -> UnicastBaseline:
        return UnicastBaseline(self.source.rig, self.config)

    def __call__(self, index: int, seed: int, receivers: list[str],
                 target_rate_bps: float) -> "RoomConference":
        """The session registry's factory: an SFU conference over links
        seeded ``self.seed + seed``, ``receivers`` seated in order."""
        conference = self.conference(index, self.downlinks(self.seed + seed))
        for name in receivers:
            conference.join(name)
        return conference


class RoomConference(ConferenceDriver):
    """A conference whose receivers may arrive by name only: ``join``
    without a pose feed seats by the room's rule, which is all the
    registry's mailboxes and the tick pool carry."""

    def __init__(self, index: int, room: Room, downlinks: DownlinkSet | None = None):
        super().__init__(index, room.source.rig, room.config, downlinks)
        self.room = room

    def join(self, name: str, pose_trace=None, downlink_trace=None) -> None:
        if pose_trace is None:
            pose_trace = self.room.pose_trace(self.node.book.total_joins)
        super().join(name, pose_trace, downlink_trace)
