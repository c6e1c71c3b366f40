"""Fleet capacity harness: hundreds of concurrent SFU conferences.

The ROADMAP's question is blunt: how many conferences does one core
sustain?  This harness answers it the way a capacity test should --
by running N full SFU sessions (uplink encode -> node ingest -> node
forward) concurrently over one shared capture source, with join/leave
churn, and measuring wall-clock per session-frame:

- **shared kernel caches**: every session consumes the *same*
  :class:`~repro.perf.capture.CachedFrameSource` capture, so the splat
  renderer runs once per frame for the whole fleet -- the cross-session
  sharing a real media server gets from one speaker fanning out to
  many rooms;
- **per-session state**: each conference
  (:class:`~repro.sfu.conference.ConferenceDriver`) owns its uplink
  encoder, SFU node and per-receiver downlinks/GCC; the fleet owns the
  join/leave schedule (:func:`_seeded_roster`, seeded per conference, so
  the fleet replays deterministically);
- **capacity metrics**: sessions/core at the 30 fps frame budget, p50/
  p99 session-frame latency, and aggregate uplink savings vs a unicast
  control group churned by the same rule from its own seeds.

Each frame, the conferences tick on one cross-session
:class:`~repro.runtime.batchplane.BatchPlane` in cohorts of at most
:data:`~repro.runtime.batchplane.LOCKSTEP_COHORT`: a cohort ticks in
lockstep, its equal-shape codec kernel jobs coalesced into stacked SoA
calls, before the next one starts (DESIGN.md section 9; per-session
outputs are pinned by the session digests).
The ``fleet`` workload of ``benchmarks/e2e`` drives this module.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.capture.dataset import load_video
from repro.core.config import FPS, HORIZON_S, SessionConfig
from repro.obs.metrics import MetricsRegistry
from repro.perf.capture import CachedFrameSource
from repro.perf.counters import CacheCounters
from repro.prediction.pose import user_traces_for_video
from repro.runtime.batchplane import BatchPlane
from repro.sfu.conference import ConferenceDriver, UnicastBaseline
from repro.transport.downlink import DownlinkSet
from repro.transport.link import LinkConfig
from repro.transport.traces import constant_trace

__all__ = ["FleetConfig", "FleetResult", "run_fleet"]

# Every fleet conference is the same small room.
VIDEO = "office1"
NUM_CAMERAS = 3
CAMERA_WIDTH = 24
CAMERA_HEIGHT = 18
GOP_SIZE = 6
DOWNLINK_MBPS = 4.0
TARGET_RATE_BPS = 2e6


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet run."""

    sessions: int = 200
    frames: int = 30
    receivers: int = 3          # initial receivers per conference
    churn_every: int = 10       # one join/leave per session every k frames
    sample_budget: int = 3000
    seed: int = 0
    unicast_control: int = 4    # control conferences run unicast for the baseline

    def __post_init__(self) -> None:
        if self.sessions <= 0 or self.frames <= 0 or self.receivers <= 0:
            raise ValueError("sessions/frames/receivers must be positive")
        if self.churn_every <= 0:
            raise ValueError("churn_every must be positive")
        if self.unicast_control <= 0:
            raise ValueError("unicast_control must be positive")
        if self.sample_budget <= 0:
            raise ValueError("sample_budget must be positive")
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
    cores_available: int
    session_frames_per_s: float
    sessions_per_core: float
    latency_ms_p50: float
    latency_ms_p99: float
    latency_ms_mean: float
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
    # ``fleet_digest`` in to_dict compresses them to one line.
    session_digests: list = field(default_factory=list)

    @classmethod
    def fold(
        cls, fleet: FleetConfig, conferences, batch_plane: BatchPlane, capture: dict,
        latencies: list[float], wall_s: float, churn_events: int, control: tuple,
    ) -> "FleetResult":
        """The fleet-wide numbers from every conference, the lockstep
        loop's wall clock and latencies, and the unicast ``control``
        group's ``(bytes, seconds)`` per frame.

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
        latencies_ms = np.asarray(latencies) * 1e3
        throughput = session_frames / wall_s if wall_s > 0 else float("inf")
        return cls(
            sessions=fleet.sessions,
            frames=fleet.frames,
            session_frames=session_frames,
            churn_events=churn_events,
            wall_s=wall_s,
            cores_available=os.cpu_count() or 1,
            session_frames_per_s=throughput,
            sessions_per_core=throughput / FPS,
            latency_ms_p50=float(np.percentile(latencies_ms, 50)),
            latency_ms_p99=float(np.percentile(latencies_ms, 99)),
            latency_ms_mean=float(latencies_ms.mean()),
            sfu_uplink_bytes_per_frame=uplink,
            unicast_uplink_bytes_per_frame=unicast_bytes_per_frame,
            uplink_savings=(
                1.0 - uplink / unicast_bytes_per_frame if unicast_bytes_per_frame > 0 else 0.0
            ),
            sfu_downlink_bytes_per_frame=sum(c.downlink_bytes for c in conferences)
            / session_frames,
            mean_receivers=sum(c.receiver_frames for c in conferences) / session_frames,
            control_sessions=fleet.unicast_control,
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

    def to_dict(self) -> dict:
        return {
            "sessions": self.sessions,
            "frames": self.frames,
            "session_frames": self.session_frames,
            "churn_events": self.churn_events,
            "wall_s": round(self.wall_s, 3),
            "cores_available": self.cores_available,
            "session_frames_per_s": round(self.session_frames_per_s, 1),
            "sessions_per_core": round(self.sessions_per_core, 2),
            "latency_ms": {
                "p50": round(self.latency_ms_p50, 3),
                "p99": round(self.latency_ms_p99, 3),
                "mean": round(self.latency_ms_mean, 3),
            },
            "uplink_bytes_per_frame": {
                "sfu": round(self.sfu_uplink_bytes_per_frame, 1),
                "unicast": round(self.unicast_uplink_bytes_per_frame, 1),
            },
            "uplink_savings": round(self.uplink_savings, 4),
            "sfu_downlink_bytes_per_frame": round(self.sfu_downlink_bytes_per_frame, 1),
            "mean_receivers": round(self.mean_receivers, 2),
            "control_sessions": self.control_sessions,
            "control_wall_per_frame_ms": round(self.control_wall_per_frame_ms, 3),
            # Merged across every conference in the fleet (counters and
            # occupancy gauges summed, peaks maxed, hit rates from
            # merged counts) -- NOT a single-session sample.
            "sfu_metrics_fleet": self.sfu_metrics,
            "batch_plane_stats": self.batch_plane_stats,
            "cache_stats": self.cache_stats,
            "fleet_digest": self.fleet_digest,
        }


def _seeded_roster(party, index, seed, fleet: FleetConfig, pose_traces):
    """Seat ``party``'s initial receivers; return its seeded churn step.

    ``party`` is a :class:`ConferenceDriver` or a
    :class:`UnicastBaseline`.  Receivers take the pose traces round-robin
    in join order.  The returned ``step(sequence)`` applies at most one
    join or leave every ``fleet.churn_every`` frames, drawn from
    ``default_rng(seed)``, and returns how many events it applied.
    """
    rng = np.random.default_rng(seed)
    joined = 0

    def join(name: str) -> None:
        nonlocal joined
        party.join(name, pose_traces[joined % len(pose_traces)])
        joined += 1

    for j in range(fleet.receivers):
        join(f"s{index}r{j}")

    def step(sequence: int) -> int:
        if sequence == 0 or sequence % fleet.churn_every != 0:
            return 0
        names = party.receiver_names
        if len(names) > 1 and rng.random() < 0.5:
            party.leave(names[int(rng.integers(len(names)))])
        else:
            join(f"s{index}g{joined - fleet.receivers + 1}")
        return 1

    return step


def _run_unicast_control(fleet: FleetConfig, config, rig, source, pose_traces):
    """The unicast baseline: same churn rule, N cloned sender pipelines.

    Its schedules draw from ``seed + 100_003 + index``, not the
    conferences' ``seed + index``: a sample of the same churn process,
    not a replay of particular conferences (DESIGN.md section 12).
    """
    total_frames = fleet.unicast_control * fleet.frames
    total_bytes = 0
    wall = 0.0
    for index in range(fleet.unicast_control):
        control = UnicastBaseline(rig, config)
        seed = fleet.seed + 100_003 + index
        churn = _seeded_roster(control, index, seed, fleet, pose_traces)
        for sequence in range(fleet.frames):
            churn(sequence)
            frame = source.capture(sequence)
            start = time.perf_counter()
            control.tick(frame, sequence / FPS, TARGET_RATE_BPS, HORIZON_S)
            wall += time.perf_counter() - start
        total_bytes += control.uplink_bytes
    return total_bytes / total_frames, wall / total_frames


def run_fleet(fleet: FleetConfig) -> FleetResult:
    """Run the fleet and return its capacity numbers."""
    config = SessionConfig(
        num_cameras=NUM_CAMERAS,
        camera_width=CAMERA_WIDTH,
        camera_height=CAMERA_HEIGHT,
        scene_sample_budget=fleet.sample_budget,
        gop_size=GOP_SIZE,
    )
    _, scene = load_video(VIDEO, sample_budget=fleet.sample_budget)
    # ONE capture source for the whole fleet: the shared kernel cache.
    source = CachedFrameSource.for_config(config, scene)
    pose_traces = user_traces_for_video(VIDEO, fleet.frames + 10)
    trace = constant_trace(DOWNLINK_MBPS, duration_s=fleet.frames / FPS + 10.0)

    # Everything from driver construction to the last tick runs under
    # one try/finally: a failure surfacing mid-run (or building
    # conference 151 of 200) must still close every driver.
    conferences: list[ConferenceDriver] = []
    churns = []
    try:
        for index in range(fleet.sessions):
            seed = fleet.seed + index
            conference = ConferenceDriver(
                index, source.rig, config, DownlinkSet(trace, LinkConfig(seed=seed))
            )
            conferences.append(conference)
            churns.append(_seeded_roster(conference, index, seed, fleet, pose_traces))

        batch_plane = BatchPlane()
        latencies = []
        churn_events = 0
        wall_start = time.perf_counter()
        for sequence in range(fleet.frames):
            now = sequence / FPS
            frame = source.capture(sequence)
            churn_events += sum(churn(sequence) for churn in churns)
            outcome = batch_plane.run_lockstep(
                [
                    conference.tick_steps(frame, now, TARGET_RATE_BPS, HORIZON_S)
                    for conference in conferences
                ]
            )
            latencies.extend(outcome.elapsed)
        wall_s = time.perf_counter() - wall_start
        # Before the unicast control group reuses the shared source.
        capture = source.counters().to_dict()
    finally:
        for conference in conferences:
            conference.close()

    control = _run_unicast_control(fleet, config, source.rig, source, pose_traces)
    return FleetResult.fold(
        fleet, conferences, batch_plane, capture, latencies, wall_s, churn_events, control
    )
