"""The multi-party frame loop: one uplink encode -> SFU node, per tick.

:class:`ConferenceDriver` is the one place a conference's frame runs --
predict -> union cull -> prepare -> encode -> node ingest -> node
forward -- and every multi-party caller drives it:

- :mod:`repro.service` hosts one per session, joins/leaves arriving
  over HTTP, and :mod:`repro.sfu.fleet` hundreds on the same host;
- the scenario runner, the ``multiway`` CLI command and the ablation
  benchmark tick one directly, built from a room (:mod:`repro.sfu.room`).

A driver owns the conference's sender, SFU node, per-receiver
downlinks and its running output digest.  Built with a
:class:`~repro.transport.downlink.DownlinkSet` it is the SFU; built
without, nothing leaves the node and what remains is the *shared*
stream -- one union-culled encode every receiver consumes -- whose
uplink is byte for byte the SFU's.  It keeps counters and a running
digest, never a per-tick history, so a hosted conference's memory
stays flat however long it runs.  It exposes:

- :meth:`join` / :meth:`leave` -- membership, applied between ticks;
- :meth:`tick_steps` -- one frame as a request-yielding generator, the
  form the cross-session batch plane
  (:class:`repro.runtime.batchplane.BatchPlane`) drives in lockstep;
- :meth:`tick` -- the same generator resolved on the spot, for a
  caller with a single conference.

:class:`UnicastBaseline` is the control group behind the same
``join``/``leave``/``tick`` surface: one full sender pipeline per
receiver, each stream culled to exactly its receiver's frustum, so
encodes and uplink bytes scale with the roster.

Determinism: the only randomness is the downlinks' seeded loss; two
drivers built with identical arguments, given identical joins and
ticked with identical frames produce byte-identical digests regardless
of which driver resolved the generator's kernel requests.
"""

from __future__ import annotations

import hashlib

from repro.core import multiway
from repro.core.sender import LiVoSender, SenderResult
from repro.prediction.predictor import ViewingDevice
from repro.runtime.batchplane import drive_serial
from repro.sfu.node import SFUNode, SFUTick

__all__ = ["ConferenceDriver", "UnicastBaseline"]


class ConferenceDriver:
    """One conference: uplink sender + SFU node, one frame per tick."""

    def __init__(self, index, rig, config, downlinks=None):
        self.index = index
        self.rig = rig
        self.config = config
        self.device = ViewingDevice()
        self.sender = LiVoSender(rig.cameras, config, self.device)
        self.node = SFUNode(rig.cameras, config, self.device, downlinks=downlinks)
        self.uplink_bytes = 0
        self.downlink_bytes = 0
        self.encoder_runs = 0
        self.receiver_frames = 0
        self.frames_ticked = 0
        self.digest = hashlib.sha256()
        self._closed = False

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def receiver_names(self) -> list[str]:
        """Receivers currently in the conference, join order."""
        return self.node.receiver_names

    def join(self, name: str, pose_trace, downlink_trace=None) -> None:
        """A receiver joins: cold predictor, the pose feed it reports
        from, and (with downlinks) a fresh link + GCC -- over
        ``downlink_trace`` if given, else the set's default trace.
        A name already present raises ValueError."""
        state = self.node.add_receiver(name, downlink_trace)
        state.extras["trace"] = pose_trace

    def leave(self, name: str) -> None:
        """A receiver leaves; a name not present raises ValueError."""
        self.node.remove_receiver(name)

    # ------------------------------------------------------------------
    # Ticking
    # ------------------------------------------------------------------

    def _cull_and_prepare(self, tick: SFUTick):
        """Union-cull against the predicted frustums, then cull + tile."""
        frustums = self.node.predicted_frustums(tick.sequence, tick.horizon_s)
        frame = tick.frame
        if frustums:
            # Looked up on the module per call: that name is where the
            # outside-in span tracer of benchmarks/e2e hooks the cull.
            frame = multiway.cull_views_union(
                tick.frame,
                self.rig.cameras,
                list(frustums.values()),
                cache=self.node.cull_cache,
            )
        return self.sender.prepare(frame, tick.horizon_s)

    def _make_tick(self, frame, now, target_rate_bps, horizon_s) -> SFUTick:
        """Fold in pose reports and build the frame's tick item."""
        for name in self.node.receiver_names:
            trace = self.node.book.get(name).extras["trace"]
            self.node.observe_pose(name, trace.pose_at_frame(frame.sequence), now)
        return SFUTick(
            frame=frame,
            uplink=None,
            now=now,
            target_rate_bps=target_rate_bps,
            horizon_s=horizon_s,
        )

    def _account(self, tick: SFUTick) -> None:
        """Byte bookkeeping plus the session's running output digest."""
        digest = self.digest
        if tick.uplink is not None and tick.uplink.color_frame is not None:
            digest.update(tick.uplink.color_frame.payload)
            digest.update(tick.uplink.depth_frame.payload)
            digest.update(f"{tick.uplink.split:.17g}".encode("ascii"))
            self.uplink_bytes += tick.uplink.total_bytes
            self.encoder_runs += 2
        else:
            digest.update(b"\x00")
        if tick.decisions:
            for name in sorted(tick.decisions):
                decision = tick.decisions[name]
                digest.update(
                    f"{name}:{decision.rung}:{decision.kept_points}:"
                    f"{decision.bytes}".encode("ascii")
                )
            self.downlink_bytes += sum(d.bytes for d in tick.decisions.values())
        self.receiver_frames += len(self.node.receiver_names)
        self.frames_ticked += 1

    def tick(self, frame, now, target_rate_bps, horizon_s) -> SFUTick:
        """One frame for this conference alone; returns the finished tick
        (its ``uplink`` result and per-receiver forward ``decisions``)."""
        return drive_serial(self.tick_steps(frame, now, target_rate_bps, horizon_s))

    def tick_steps(self, frame, now, target_rate_bps, horizon_s):
        """One frame as a request-yielding generator.

        Culling, tiling, node ingest and node forward run inline; only
        the encode yields its kernel jobs upward, for cross-session
        bucketing on a lockstep driver.  Returns the finished tick.
        """
        tick = self._make_tick(frame, now, target_rate_bps, horizon_s)
        prepared = self._cull_and_prepare(tick)
        tick.uplink = yield from self.sender.encode_steps(
            prepared, tick.target_rate_bps
        )
        self.node.ingest(tick.frame, tick.uplink, tick.now)
        tick.decisions = self.node.forward(
            tick.now, tick.horizon_s, tick.target_rate_bps
        )
        self._account(tick)
        return tick

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drop node state; safe to call twice."""
        self._closed = True
        self.node.close()


class UnicastBaseline:
    """The control group: one full sender pipeline per receiver.

    Same ``join``/``leave``/``tick`` surface as :class:`ConferenceDriver`,
    so one roster schedule drives either; every receiver gets a stream
    culled to its own frustum at the full target rate.
    """

    def __init__(self, rig, config):
        self.rig = rig
        self.config = config
        self.device = ViewingDevice()
        # name -> (that receiver's pipeline, its pose feed), join order
        self._pipelines: dict[str, tuple[LiVoSender, object]] = {}
        self.total_joins = 0
        self.uplink_bytes = 0
        self.encoder_runs = 0

    @property
    def receiver_names(self) -> list[str]:
        """Receivers currently served, join order."""
        return list(self._pipelines)

    def join(self, name: str, pose_trace, downlink_trace=None) -> None:
        """A receiver joins with a cold pipeline of its own (there is no
        node, so no downlink to provision)."""
        if name in self._pipelines:
            raise ValueError(f"receiver {name!r} already present")
        sender = LiVoSender(self.rig.cameras, self.config, self.device)
        self._pipelines[name] = (sender, pose_trace)
        self.total_joins += 1

    def leave(self, name: str) -> None:
        """A receiver leaves and its pipeline goes with it."""
        if name not in self._pipelines:
            raise ValueError(f"receiver {name!r} not present")
        del self._pipelines[name]

    def tick(self, frame, now, target_rate_bps, horizon_s) -> dict[str, SenderResult]:
        """One frame through every receiver's pipeline, join order."""
        results = {}
        for name, (sender, pose_trace) in self._pipelines.items():
            sender.observe_pose(pose_trace.pose_at_frame(frame.sequence), now)
            result = results[name] = sender.process(frame, target_rate_bps, horizon_s)
            if result is not None and not result.empty:
                self.uplink_bytes += result.total_bytes
                self.encoder_runs += 2
        return results
