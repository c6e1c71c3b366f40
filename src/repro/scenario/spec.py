"""Declarative scenario specs: everything one adverse run needs.

A :class:`ScenarioSpec` is the complete, serializable description of a
chaos run: workload (video, scheme, camera rig size, frame count),
network (a :class:`TraceSpec` built from piecewise segments or one of
the paper's named traces), faults (a :class:`repro.faults.plan.
FaultPlan`), mobility (which user pose trace drives the receiver), and
-- for multi-party scenarios -- an initial roster plus join/leave churn
(``multiway_mode`` picks what it is applied to: a
:class:`repro.sfu.conference.ConferenceDriver` with downlinks, ``sfu``;
one without, ``shared``; or the
:class:`~repro.sfu.conference.UnicastBaseline`, ``unicast``).  A
roster that cannot be played -- a duplicate peer, a ``leave`` of a
non-member, a ``join`` of a member -- is rejected when the spec is
built, naming the event.

Specs are frozen dataclasses with a dict loader
(:meth:`ScenarioSpec.from_dict`), so a recording artifact can embed the
exact spec it was produced from and a replay needs nothing but the
artifact.  :meth:`ScenarioSpec.fingerprint` hashes the canonical JSON
form; two specs with the same fingerprint replay identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FPS, SchemeFlags, SessionConfig
from repro.faults.plan import FaultPlan
from repro.transport.link import LinkConfig
from repro.transport.traces import BandwidthTrace, trace_1, trace_2

__all__ = [
    "TraceSegment",
    "TraceSpec",
    "ChurnEvent",
    "ReceiverLink",
    "ScenarioSpec",
    "LIVO_SCHEMES",
]

LIVO_SCHEMES = ("LiVo", "LiVo-NoCull", "LiVo-NoAdapt")


@dataclass(frozen=True)
class TraceSegment:
    """One piece of a piecewise bandwidth schedule.

    Capacity holds at ``mbps`` for ``duration_s`` seconds, or ramps
    linearly to ``mbps_end`` over the segment when given (a handoff
    sweep or a fade).
    """

    duration_s: float
    mbps: float
    mbps_end: float | None = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("segment duration must be positive")
        if self.mbps < 0:
            raise ValueError("segment capacity must be non-negative")
        if self.mbps_end is not None and self.mbps_end < 0:
            raise ValueError("segment end capacity must be non-negative")

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "mbps": self.mbps,
            "mbps_end": self.mbps_end,
        }


@dataclass(frozen=True)
class TraceSpec:
    """Declarative bandwidth trace: named (Table 4) or piecewise.

    ``named`` selects ``trace-1``/``trace-2``; otherwise ``segments``
    define the schedule, optionally roughened by seeded multiplicative
    log-normal jitter (``jitter_sigma``).  Building is deterministic in
    the spec, which is what makes recorded scenarios replayable.
    """

    segments: tuple[TraceSegment, ...] = ()
    named: str | None = None
    interval_s: float = 0.1
    jitter_sigma: float = 0.0
    seed: int = 0
    label: str = "scenario"

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.named is not None and self.named not in ("trace-1", "trace-2"):
            raise ValueError("named trace must be 'trace-1' or 'trace-2'")
        if self.named is None and not self.segments:
            raise ValueError("trace spec needs segments or a named trace")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")

    def build(self, duration_s: float) -> BandwidthTrace:
        """Materialize the trace (``duration_s`` sizes named traces).

        Piecewise traces use their own total segment length and loop
        past it, like every :class:`BandwidthTrace`.
        """
        if self.named == "trace-1":
            return trace_1(duration_s=max(duration_s, 10.0), seed=self.seed or 1)
        if self.named == "trace-2":
            return trace_2(duration_s=max(duration_s, 10.0), seed=self.seed or 2)
        pieces = []
        for segment in self.segments:
            count = max(1, int(round(segment.duration_s / self.interval_s)))
            end = segment.mbps if segment.mbps_end is None else segment.mbps_end
            pieces.append(
                segment.mbps
                + (end - segment.mbps) * np.arange(count, dtype=np.float64) / count
            )
        capacities = np.concatenate(pieces)
        if self.jitter_sigma > 0.0:
            rng = np.random.default_rng(self.seed)
            capacities = capacities * np.exp(
                rng.normal(0.0, self.jitter_sigma, len(capacities))
            )
        return BandwidthTrace(capacities, self.interval_s, name=self.label)

    def to_dict(self) -> dict:
        return {
            "segments": [segment.to_dict() for segment in self.segments],
            "named": self.named,
            "interval_s": self.interval_s,
            "jitter_sigma": self.jitter_sigma,
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSpec":
        return cls(
            segments=tuple(
                TraceSegment(**entry) for entry in data.get("segments", ())
            ),
            named=data.get("named"),
            interval_s=data.get("interval_s", 0.1),
            jitter_sigma=data.get("jitter_sigma", 0.0),
            seed=data.get("seed", 0),
            label=data.get("label", "scenario"),
        )


@dataclass(frozen=True)
class ChurnEvent:
    """One peer joining or leaving a multi-party conference."""

    time_s: float
    action: str  # "join" | "leave"
    peer: str

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("churn time must be non-negative")
        if self.action not in ("join", "leave"):
            raise ValueError(f"unknown churn action {self.action!r}")
        if not self.peer:
            raise ValueError("churn event needs a peer name")

    def to_dict(self) -> dict:
        return {"time_s": self.time_s, "action": self.action, "peer": self.peer}


@dataclass(frozen=True)
class ReceiverLink:
    """A heterogeneous per-receiver downlink for SFU scenarios.

    Receivers without an entry inherit the scenario's main trace; an
    entry pins that peer's downlink to a constant ``mbps`` capacity
    (and optionally its own propagation delay) -- the "one receiver on
    cellular, one on ethernet" shape an SFU exists to serve.
    """

    peer: str
    mbps: float
    propagation_s: float | None = None

    def __post_init__(self) -> None:
        if not self.peer:
            raise ValueError("receiver link needs a peer name")
        if self.mbps <= 0:
            raise ValueError("receiver link capacity must be positive")
        if self.propagation_s is not None and self.propagation_s < 0:
            raise ValueError("receiver link propagation must be non-negative")

    def to_dict(self) -> dict:
        return {"peer": self.peer, "mbps": self.mbps, "propagation_s": self.propagation_s}


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, named, replayable chaos scenario."""

    name: str
    description: str
    trace: TraceSpec
    kind: str = "livo"  # "livo" | "multiway"
    video: str = "office1"
    scheme: str = "LiVo"
    frames: int = 60
    seed: int = 0
    user_index: int = 0
    num_cameras: int = 4
    camera_width: int = 32
    camera_height: int = 24
    sample_budget: int = 6000
    gop_size: int = 10
    quality_every: int = 6
    faults: FaultPlan = field(default_factory=FaultPlan)
    link_propagation_s: float | None = None
    link_loss_rate: float = 0.005
    initial_peers: tuple[str, ...] = ()
    churn: tuple[ChurnEvent, ...] = ()
    multiway_mode: str = "shared"
    receiver_links: tuple[ReceiverLink, ...] = ()
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_peers", tuple(self.initial_peers))
        object.__setattr__(self, "churn", tuple(self.churn))
        object.__setattr__(self, "receiver_links", tuple(self.receiver_links))
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.kind not in ("livo", "multiway"):
            raise ValueError("kind must be 'livo' or 'multiway'")
        if self.kind == "livo" and self.scheme not in LIVO_SCHEMES:
            raise ValueError(f"livo scenarios support schemes {LIVO_SCHEMES}")
        if self.frames <= 0:
            raise ValueError("frames must be positive")
        if self.sample_budget < 1:
            raise ValueError("sample_budget must be at least 1")
        if self.user_index < 0:
            raise ValueError("user_index must be non-negative")
        if self.multiway_mode not in ("shared", "unicast", "sfu"):
            raise ValueError("multiway_mode must be 'shared', 'unicast', or 'sfu'")
        if self.receiver_links:
            if self.kind != "multiway" or self.multiway_mode != "sfu":
                raise ValueError(
                    "receiver_links only apply to multiway scenarios in sfu mode"
                )
            peers = [link.peer for link in self.receiver_links]
            if len(set(peers)) != len(peers):
                raise ValueError("duplicate peer in receiver_links")
        if not 0.0 <= self.link_loss_rate < 1.0:
            raise ValueError("link_loss_rate must be in [0, 1)")
        if self.kind == "multiway":
            if not self.initial_peers:
                raise ValueError("multiway scenarios need initial_peers")
            times = [event.time_s for event in self.churn]
            if times != sorted(times):
                raise ValueError("churn events must be time-ordered")
            self._check_roster()
        elif self.churn or self.initial_peers:
            raise ValueError("churn/initial_peers only apply to multiway scenarios")
        # The rig and link must be ones a session accepts (SessionConfig
        # rejects, e.g., a tiled plane too large for the frame header).
        self.build_config()

    def _check_roster(self) -> None:
        """Walk the roster through the churn: names are unique, only a
        member leaves, only a non-member joins -- found here, not by a
        conference halfway through the run."""
        roster: set[str] = set()
        for peer in self.initial_peers:
            if peer in roster:
                raise ValueError(f"duplicate peer {peer!r} in initial_peers")
            roster.add(peer)
        for event in self.churn:
            where = f"churn event {event.action} {event.peer!r} at {event.time_s}s"
            if event.action == "join":
                if event.peer in roster:
                    raise ValueError(f"{where}: peer is already in the conference")
                roster.add(event.peer)
            else:
                if event.peer not in roster:
                    raise ValueError(f"{where}: peer is not in the conference")
                roster.remove(event.peer)

    @property
    def duration_s(self) -> float:
        """Session length at the capture cadence."""
        return self.frames / FPS

    # Multiplicative capacity dither keyed to ``seed``: large enough to
    # move GCC's initial rate and per-frame budgets (so any seed change
    # diverges the run at frame 0), small enough (±~0.5%) to leave the
    # scenario's character untouched.
    _SEED_DITHER_SIGMA = 0.005

    def build_trace(self) -> BandwidthTrace:
        """The scenario's bandwidth trace, dithered by the run seed.

        Every byte of a session depends on link capacity (GCC targets,
        encode budgets, delivery times), so tying a seeded dither to
        the trace guarantees that mutating a recorded seed produces a
        frame-level divergence -- not just a fingerprint mismatch.
        """
        trace = self.trace.build(self.duration_s + 10.0)
        rng = np.random.default_rng(self.seed)
        dither = np.exp(
            rng.normal(0.0, self._SEED_DITHER_SIGMA, len(trace.capacities_mbps))
        )
        return BandwidthTrace(
            trace.capacities_mbps * dither, trace.interval_s, name=trace.name
        )

    def build_config(self) -> SessionConfig:
        """The session config this scenario runs under.

        ``trace_scale=1.0`` keeps the spec's capacities absolute (they
        are sized to this rig), and ``trace=True`` records the obs
        timeline so replays can diff frame fates and the invariant
        checker can assert no span leaks.  ``spec.seed`` seeds the
        link's i.i.d. loss RNG, so every scenario's outcome depends on
        it -- mutating a recorded seed is guaranteed to diverge.
        """
        link = LinkConfig(
            propagation_delay_s=(
                self.link_propagation_s
                if self.link_propagation_s is not None
                else LinkConfig.propagation_delay_s
            ),
            loss_rate=self.link_loss_rate,
            seed=self.seed,
        )
        return SessionConfig(
            num_cameras=self.num_cameras,
            camera_width=self.camera_width,
            camera_height=self.camera_height,
            scene_sample_budget=self.sample_budget,
            gop_size=self.gop_size,
            quality_every=self.quality_every,
            trace_scale=1.0,
            link=link,
            scheme=SchemeFlags(
                culling=self.scheme == "LiVo",
                adaptation=self.scheme != "LiVo-NoAdapt",
            ),
            trace=self.kind == "livo",
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "kind": self.kind,
            "video": self.video,
            "scheme": self.scheme,
            "frames": self.frames,
            "seed": self.seed,
            "user_index": self.user_index,
            "num_cameras": self.num_cameras,
            "camera_width": self.camera_width,
            "camera_height": self.camera_height,
            "sample_budget": self.sample_budget,
            "gop_size": self.gop_size,
            "quality_every": self.quality_every,
            "trace": self.trace.to_dict(),
            "faults": self.faults.to_dict(),
            "link_propagation_s": self.link_propagation_s,
            "link_loss_rate": self.link_loss_rate,
            "initial_peers": list(self.initial_peers),
            "churn": [event.to_dict() for event in self.churn],
            "multiway_mode": self.multiway_mode,
            "tags": list(self.tags),
        } | (
            # Emitted only when set, so pre-SFU recordings keep their
            # canonical dict -- and therefore their fingerprint -- bit
            # for bit (the golden-corpus compatibility contract).
            {"receiver_links": [link.to_dict() for link in self.receiver_links]}
            if self.receiver_links
            else {}
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """The loader: rebuild (and re-validate) a serialized spec."""
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            kind=data.get("kind", "livo"),
            video=data.get("video", "office1"),
            scheme=data.get("scheme", "LiVo"),
            frames=data.get("frames", 60),
            seed=data.get("seed", 0),
            user_index=data.get("user_index", 0),
            num_cameras=data.get("num_cameras", 4),
            camera_width=data.get("camera_width", 32),
            camera_height=data.get("camera_height", 24),
            sample_budget=data.get("sample_budget", 6000),
            gop_size=data.get("gop_size", 10),
            quality_every=data.get("quality_every", 6),
            trace=TraceSpec.from_dict(data["trace"]),
            faults=FaultPlan.from_dict(data.get("faults", {})),
            link_propagation_s=data.get("link_propagation_s"),
            link_loss_rate=data.get("link_loss_rate", 0.005),
            initial_peers=tuple(data.get("initial_peers", ())),
            churn=tuple(ChurnEvent(**entry) for entry in data.get("churn", ())),
            multiway_mode=data.get("multiway_mode", "shared"),
            receiver_links=tuple(
                ReceiverLink(**entry) for entry in data.get("receiver_links", ())
            ),
            tags=tuple(data.get("tags", ())),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the spec (12 hex chars)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]
