"""One SFU conference as a tickable driver: uplink encode -> node.

Extracted from the fleet harness so that both consumers of a live
conference share one implementation:

- :mod:`repro.sfu.fleet` drives hundreds of :class:`ConferenceDriver`
  instances in lockstep for the capacity benchmark;
- :mod:`repro.service` wraps one driver per service session, with
  joins/leaves arriving over HTTP instead of the seeded churn
  schedule.

A driver owns the conference's sender, SFU node, per-receiver
downlinks, and its running output digest; it exposes:

- :meth:`tick_steps` -- one frame as a request-yielding generator, the
  form the cross-session batch plane
  (:class:`repro.runtime.batchplane.BatchPlane`) drives in lockstep;
- :meth:`tick` -- the same generator resolved on the spot, for a
  caller with a single conference; returns wall seconds;
- :meth:`churn` -- the fleet's internal seeded join/leave schedule
  (service sessions skip it and call :meth:`join`/:meth:`leave`
  directly).

Determinism: everything is seeded at construction; two drivers built
with identical arguments and ticked with identical frames produce
byte-identical digests regardless of which driver resolved the
generator's kernel requests.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.obs.span import CLOCK_WALL
from repro.prediction.predictor import ViewingDevice
from repro.runtime.batchplane import drive_serial
from repro.sfu.node import SFUNode, SFUTick
from repro.transport.downlink import DownlinkSet
from repro.transport.link import LinkConfig

__all__ = ["ConferenceDriver"]


class ConferenceDriver:
    """One SFU conference: uplink sender + node stages, one frame per tick."""

    def __init__(
        self, index, rig, config, trace, pose_traces, seed, receivers,
        churn_every, tracer=None,
    ):
        from repro.core.sender import LiVoSender

        self.index = index
        self.rig = rig
        self.config = config
        self.churn_every = churn_every
        self.pose_traces = pose_traces
        self.device = ViewingDevice()
        self.sender = LiVoSender(rig.cameras, config, self.device)
        self.node = SFUNode(
            rig.cameras,
            config,
            self.device,
            downlinks=DownlinkSet(trace, LinkConfig(seed=seed)),
        )
        self.rng = np.random.default_rng(seed)
        self.guest_counter = 0
        self.churn_events = 0
        self.uplink_bytes = 0
        self.downlink_bytes = 0
        self.receiver_frames = 0
        self.frames_ticked = 0
        self.digest = hashlib.sha256()
        self._trace_cursor = 0
        self._closed = False
        for j in range(receivers):
            self.join(f"s{index}r{j}")

        self.node_stages = self.node.stages()
        self.tracer = tracer
        if tracer is not None:
            for stage in self.node_stages:
                stage.attach_tracer(tracer, attrs={"session": index})

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def receiver_names(self) -> list[str]:
        """Receivers currently in the conference, join order."""
        return self.node.receiver_names

    def join(self, name: str) -> None:
        """A receiver joins: fresh downlink/GCC plus a pose trace."""
        self.node.add_receiver(name)
        trace = self.pose_traces[self._trace_cursor % len(self.pose_traces)]
        self._trace_cursor += 1
        self.node.book.get(name).extras["trace"] = trace

    def leave(self, name: str) -> None:
        """A receiver leaves; unknown names raise KeyError (node contract)."""
        self.node.remove_receiver(name)

    def churn(self, sequence) -> int:
        """Maybe one join or leave this tick (seeded, deterministic)."""
        if sequence == 0 or sequence % self.churn_every != 0:
            return 0
        names = self.node.receiver_names
        if len(names) > 1 and self.rng.random() < 0.5:
            self.leave(names[int(self.rng.integers(len(names)))])
        else:
            self.guest_counter += 1
            self.join(f"s{self.index}g{self.guest_counter}")
        self.churn_events += 1
        return 1

    # ------------------------------------------------------------------
    # Ticking
    # ------------------------------------------------------------------

    def _cull_and_prepare(self, tick: SFUTick):
        """Union-cull against the predicted frustums, then cull + tile."""
        frustums = self.node.predicted_frustums(tick.sequence, tick.horizon_s)
        frame = tick.frame
        if frustums:
            from repro.core.multiway import cull_views_union

            frame = cull_views_union(
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

    def tick(self, frame, now, target_rate_bps, horizon_s) -> float:
        """One frame for this conference alone; returns wall seconds spent."""
        start = time.perf_counter()
        drive_serial(self.tick_steps(frame, now, target_rate_bps, horizon_s))
        return time.perf_counter() - start

    def tick_steps(self, frame, now, target_rate_bps, horizon_s):
        """One frame as a request-yielding generator.

        Culling, tiling, and the SFU node stages run inline; only the
        encode yields its kernel jobs upward, for cross-session
        bucketing on a lockstep driver.  When traced, the ``sfu:uplink``
        span covers the generator-resident portion of the uplink (the
        co-batched kernel share is attributed through the lockstep
        outcome's per-session ``elapsed`` and visible as ``batch`` spans
        under ``analyze-trace --fleet``).
        """
        tick = self._make_tick(frame, now, target_rate_bps, horizon_s)
        start = time.perf_counter()
        prepared = self._cull_and_prepare(tick)
        if self.tracer is not None:
            self.tracer.add_span(
                "sfu:uplink",
                "stage",
                tick.sequence,
                start_s=start,
                end_s=time.perf_counter(),
                clock=CLOCK_WALL,
                attrs={"session": self.index},
            )
        tick.uplink = yield from self.sender.encode_steps(
            prepared, tick.target_rate_bps
        )
        for stage in self.node_stages:
            tick = stage(tick)
        self._account(tick)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self):
        """Close the sender and drop node state; safe to call twice."""
        if self._closed:
            return
        self._closed = True
        self.sender.close()
        self.node.close()
