"""Fleet capacity harness: hundreds of concurrent SFU conferences.

The ROADMAP's question is blunt: how many conferences does one core
sustain?  This harness answers it the way a capacity test should --
by running N full SFU sessions (uplink encode -> node ingest -> node
forward) concurrently, with join/leave churn, and measuring wall-clock
per session-frame:

- **one host**: conferences are hosted the way ``repro serve`` hosts
  them, minus HTTP -- created through a
  :class:`~repro.service.registry.SessionRegistry` whose factory is the
  fleet's :class:`~repro.sfu.room.Room`, churned through its
  join/leave mailboxes, advanced by
  :meth:`~repro.service.workers.TickWorkerPool.run_round` on this
  thread -- so the session digests pin the service's tick path.  A
  conference whose build or tick raises fails the run;
- **shared kernel caches**: every session consumes the room's *one*
  :class:`~repro.perf.capture.CachedFrameSource`, so the splat renderer
  runs once per frame for the whole fleet -- the cross-session sharing
  a real media server gets from one speaker fanning out to many rooms;
- **per-session state**: each conference owns its uplink encoder, SFU
  node and per-receiver downlinks/GCC; the fleet owns the join/leave
  schedule (:func:`_seeded_roster`, seeded per conference, so the fleet
  replays deterministically);
- **capacity metrics**: session-frames per second (over 30 fps, the
  sessions one core sustains), p50/p99 session-frame latency, and
  aggregate uplink savings vs a unicast control group churned by the
  same rule from its own seeds.

The ``fleet`` workload of ``benchmarks/e2e`` drives this module.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.config import FPS, HORIZON_S, SessionConfig
from repro.obs.metrics import MetricsRegistry
from repro.perf.counters import CacheCounters
from repro.service.registry import RUNNING, SessionRegistry
from repro.service.workers import TickWorkerPool
from repro.sfu.room import Room

__all__ = ["FleetConfig", "FleetResult", "run_fleet"]

# Every fleet conference is the same small room.
VIDEO = "office1"
NUM_CAMERAS = 3
CAMERA_WIDTH = 24
CAMERA_HEIGHT = 18
GOP_SIZE = 6
DOWNLINK_MBPS = 4.0
TARGET_RATE_BPS = 2e6
SAMPLE_BUDGET = 3000
# Each conference seats RECEIVERS at the start and draws one join or
# leave every CHURN_EVERY frames; UNICAST_CONTROL conferences run
# unicast as the uplink baseline.
RECEIVERS = 3
CHURN_EVERY = 10
UNICAST_CONTROL = 4


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet run."""

    sessions: int = 200
    frames: int = 30
    seed: int = 0
    # The benchmark worker reads it off the config.
    churn_every: ClassVar[int] = CHURN_EVERY

    def __post_init__(self) -> None:
        if self.sessions <= 0 or self.frames <= 0:
            raise ValueError("sessions/frames must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class FleetResult:
    """Aggregate capacity numbers for one fleet run."""

    sessions: int
    frames: int
    session_frames: int
    churn_events: int
    wall_s: float
    session_frames_per_s: float
    latency_ms_p50: float
    latency_ms_p99: float
    sfu_uplink_bytes_per_frame: float
    unicast_uplink_bytes_per_frame: float
    uplink_savings: float
    sfu_downlink_bytes_per_frame: float
    mean_receivers: float
    control_sessions: int
    control_wall_per_frame_ms: float
    sfu_metrics: dict = field(default_factory=dict)
    batch_plane_stats: dict = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)
    # One sha256 hex digest per conference over its per-tick outputs
    # (uplink payload bytes, split, forward decisions): the contract a
    # change to the lockstep schedule must keep byte for byte;
    # ``fleet_digest`` compresses them to one line.
    session_digests: list = field(default_factory=list)

    @classmethod
    def fold(
        cls, fleet: FleetConfig, conferences, batch_plane, capture: dict,
        tick_ms, wall_s: float, churn_events: int, control: tuple,
    ) -> "FleetResult":
        """The fleet-wide numbers from every conference, the tick pool's
        batch plane, the frame loop's wall clock, the per-session tick
        latencies (``tick_ms``, the service's ``service.tick_ms``
        histogram) and the unicast ``control`` group's
        ``(bytes, seconds)`` per frame.

        One merged tally per metric and per cache: counters and
        occupancy gauges sum, peaks take the max, hit rates come from
        merged counts -- a fleet-wide figure, never one conference's
        sample or 200 copies of a shared gauge.  ``capture`` is the
        shared source's counters, snapshotted before the control group
        reused the source.
        """
        registry = MetricsRegistry()
        codec_scratch = CacheCounters("codec_scratch")
        cull_projection = CacheCounters("cull_projection")
        for conference in conferences:
            per_conference = MetricsRegistry()
            conference.node.metrics_into(per_conference)
            registry.merge(per_conference)
            codec_scratch.merge(conference.sender.cache_counters())
            cull_projection.merge(conference.node.cull_cache.counters)
        cache_stats = {
            "codec_scratch": codec_scratch.to_dict(),
            "cull_projection": cull_projection.to_dict(),
            "capture_projection": capture,
        }
        for counters in batch_plane.counters.values():
            cache_stats[counters.name] = counters.to_dict()
        session_frames = fleet.sessions * fleet.frames
        uplink = sum(c.uplink_bytes for c in conferences) / session_frames
        unicast_bytes_per_frame, control_s = control
        throughput = session_frames / wall_s if wall_s > 0 else float("inf")
        return cls(
            sessions=fleet.sessions,
            frames=fleet.frames,
            session_frames=session_frames,
            churn_events=churn_events,
            wall_s=wall_s,
            session_frames_per_s=throughput,
            latency_ms_p50=tick_ms.quantile(0.5),
            latency_ms_p99=tick_ms.quantile(0.99),
            sfu_uplink_bytes_per_frame=uplink,
            unicast_uplink_bytes_per_frame=unicast_bytes_per_frame,
            uplink_savings=(
                1.0 - uplink / unicast_bytes_per_frame if unicast_bytes_per_frame > 0 else 0.0
            ),
            sfu_downlink_bytes_per_frame=sum(c.downlink_bytes for c in conferences)
            / session_frames,
            mean_receivers=sum(c.receiver_frames for c in conferences) / session_frames,
            control_sessions=UNICAST_CONTROL,
            control_wall_per_frame_ms=control_s * 1e3,
            sfu_metrics={
                name: registry.get(name).to_dict()
                for name in registry.names()
                if not name.startswith("sfu.rx.")
            },
            batch_plane_stats=batch_plane.stats(),
            cache_stats=cache_stats,
            session_digests=[c.digest.hexdigest() for c in conferences],
        )

    @property
    def fleet_digest(self) -> str:
        """Order-sensitive digest of every session's output digest."""
        rollup = hashlib.sha256()
        for digest in self.session_digests:
            rollup.update(digest.encode("ascii"))
        return rollup.hexdigest()


def _seeded_roster(index, seed, party, join, leave):
    """One party's seeded churn rule; returns its step.

    ``join`` / ``leave`` take a receiver name (the room seats a joiner);
    ``party.receiver_names`` is the roster in join order.  The returned
    ``step(sequence)`` applies at most one join (guests ``s{index}g1``,
    ``s{index}g2``, ...) or leave every ``CHURN_EVERY`` frames,
    drawn from ``default_rng(seed)``, and returns how many it applied.
    """
    rng = np.random.default_rng(seed)
    guests = itertools.count(1)

    def step(sequence: int) -> int:
        if sequence == 0 or sequence % CHURN_EVERY != 0:
            return 0
        names = party.receiver_names
        if len(names) > 1 and rng.random() < 0.5:
            leave(names[int(rng.integers(len(names)))])
        else:
            join(f"s{index}g{next(guests)}")
        return 1

    return step


def _run_unicast_control(fleet: FleetConfig, room):
    """The unicast baseline: same churn rule, N cloned sender pipelines.

    Its schedules draw from ``seed + 100_003 + index``, not the
    conferences' ``seed + index``: a sample of the same churn process,
    not a replay of particular conferences (DESIGN.md section 12).
    """
    total_frames = UNICAST_CONTROL * fleet.frames
    total_bytes = 0
    wall = 0.0
    for index in range(UNICAST_CONTROL):
        control = room.unicast()

        def seat(name):
            control.join(name, room.pose_trace(control.total_joins))

        for j in range(RECEIVERS):
            seat(f"s{index}r{j}")
        seed = fleet.seed + 100_003 + index
        churn = _seeded_roster(index, seed, control, seat, control.leave)
        for sequence in range(fleet.frames):
            churn(sequence)
            frame = room.source.capture(sequence)
            start = time.perf_counter()
            control.tick(frame, sequence / FPS, TARGET_RATE_BPS, HORIZON_S)
            wall += time.perf_counter() - start
        total_bytes += control.uplink_bytes
    return total_bytes / total_frames, wall / total_frames


def _raise_if_failed(record) -> None:
    """The service drains a conference whose build or tick raised and
    goes on; a capacity run must not report over it."""
    if record.state != RUNNING:
        raise RuntimeError(f"fleet conference {record.session_id} failed: {record.error}")


def run_fleet(fleet: FleetConfig) -> FleetResult:
    """Run the fleet on the service host and return its capacity numbers."""
    config = SessionConfig(
        num_cameras=NUM_CAMERAS,
        camera_width=CAMERA_WIDTH,
        camera_height=CAMERA_HEIGHT,
        scene_sample_budget=SAMPLE_BUDGET,
        gop_size=GOP_SIZE,
    )
    # ONE room for the whole fleet: its source is the shared kernel cache.
    room = Room(config, VIDEO, fleet.frames + 10, DOWNLINK_MBPS, seed=fleet.seed)
    registry = SessionRegistry(room)
    pool = TickWorkerPool(registry, room.source)
    # Everything from the first create to the last round runs under one
    # try/finally: a failure surfacing mid-run (or building conference
    # 151 of 200) must still close every driver.
    try:
        records, churns = [], []
        for index in range(fleet.sessions):
            record = registry.create(
                seed=index,
                target_rate_bps=TARGET_RATE_BPS,
                initial_clients=[f"s{index}r{j}" for j in range(RECEIVERS)],
            )
            _raise_if_failed(record)
            records.append(record)
            # Churn goes through the registry's mailboxes, like HTTP
            # joins and leaves, and applies at the next round.
            sid = record.session_id
            churns.append(_seeded_roster(
                index, fleet.seed + index, record.driver,
                functools.partial(registry.join, sid), functools.partial(registry.leave, sid),
            ))
        churn_events = 0
        wall_start = time.perf_counter()
        for sequence in range(fleet.frames):
            churn_events += sum(churn(sequence) for churn in churns)
            pool.run_round()
            for record in records:
                _raise_if_failed(record)
        wall_s = time.perf_counter() - wall_start
        # Before the unicast control group reuses the shared source, and
        # the drivers before the registry reaps them off their records.
        capture = room.source.counters().to_dict()
        conferences = [record.driver for record in records]
    finally:
        registry.close()

    control = _run_unicast_control(fleet, room)
    return FleetResult.fold(
        fleet, conferences, pool.plane, capture,
        registry.metrics.histogram("service.tick_ms"), wall_s, churn_events, control,
    )
