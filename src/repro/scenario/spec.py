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

Specs are frozen dataclasses, and their fields are the JSON schema:
:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict` are one
typed walk over them (``_encode`` / ``_decode`` below), so a recording
artifact can embed the exact spec it was produced from and a replay
needs nothing but the artifact.  A malformed spec is a ``ValueError``
naming its path (``spec.trace.segments[0]: unknown field(s) [...]``).
:meth:`ScenarioSpec.fingerprint` hashes the canonical JSON form; two
specs with the same fingerprint replay identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import reprlib
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from repro.capture.dataset import video_names
from repro.core.config import FPS, SessionConfig
from repro.core.schemes import LIVO_SCHEMES
from repro.faults.plan import FaultPlan
from repro.transport.link import LinkConfig
from repro.transport.traces import BandwidthTrace, trace_1, trace_2

__all__ = [
    "TraceSegment",
    "TraceSpec",
    "ChurnEvent",
    "ReceiverLink",
    "ScenarioSpec",
]


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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

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
        if self.scheme not in LIVO_SCHEMES:
            raise ValueError(f"scenarios support schemes {LIVO_SCHEMES}")
        if self.video not in video_names():
            raise ValueError(f"unknown video {self.video!r}; one of {video_names()}")
        if self.frames <= 0:
            raise ValueError("frames must be positive")
        if self.sample_budget < 1:
            raise ValueError("sample_budget must be at least 1")
        if self.user_index < 0:
            raise ValueError("user_index must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
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
        are sized to this rig).  ``spec.seed`` seeds the
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
            scheme=self.scheme,
        )

    def to_dict(self) -> dict:
        """The spec's JSON form (see :func:`_encode`)."""
        return _encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """The loader: rebuild (and re-validate) a serialized spec."""
        return _decode(cls, data, "spec")

    def fingerprint(self) -> str:
        """Stable content hash of the spec (12 hex chars)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# The codec: the dataclass fields are the schema
# ----------------------------------------------------------------------


def _encode(value):
    """The JSON form of a spec value.

    A dataclass is an object of its fields, a one-field dataclass
    (``EncoderFault``, ``FrameCorruption``) its bare value, a tuple a
    list.  One exception: an empty ``receiver_links`` is left out, so
    pre-SFU recordings keep their canonical dict -- and therefore their
    fingerprint -- bit for bit (the golden-corpus contract).
    """
    if dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
        if len(names) == 1:
            return _encode(getattr(value, names[0]))
        out = {name: _encode(getattr(value, name)) for name in names}
        if out.get("receiver_links") == []:
            del out["receiver_links"]
        return out
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(kind, data, path: str):
    """Rebuild a value of type ``kind`` from its JSON form ``data``.

    Scalars are typed strictly: an ``int`` is never a bool, a float or a
    string, and a ``float`` takes a JSON int as it is (so a golden's
    ``4`` re-encodes as ``4``).  An unknown field, a missing required
    field, a wrong type, or a value the dataclass itself rejects raises
    ``ValueError`` naming ``path``.
    """
    if typing.get_origin(kind) is types.UnionType:  # X | None
        if data is None:
            return None
        (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
    if typing.get_origin(kind) is tuple:  # tuple[X, ...]
        _expect(isinstance(data, list), "a list", data, path)
        item = typing.get_args(kind)[0]
        return tuple(_decode(item, entry, f"{path}[{i}]") for i, entry in enumerate(data))
    if dataclasses.is_dataclass(kind):
        fields = dataclasses.fields(kind)
        hints = typing.get_type_hints(kind)
        if len(fields) == 1:
            values = {fields[0].name: _decode(hints[fields[0].name], data, path)}
        else:
            _expect(isinstance(data, dict), "an object", data, path)
            unknown = sorted(set(data) - {f.name for f in fields})
            if unknown:
                raise ValueError(f"{path}: unknown field(s) {unknown}")
            missing = [
                f.name
                for f in fields
                if f.name not in data
                and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ]
            if missing:
                raise ValueError(f"{path}: missing field(s) {missing}")
            values = {
                name: _decode(hints[name], value, f"{path}.{name}")
                for name, value in data.items()
            }
        try:
            return kind(**values)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from error
    if kind is float:
        finite = type(data) is int or (type(data) is float and math.isfinite(data))
        _expect(finite, "a finite number", data, path)
    else:
        _expect(type(data) is kind, kind.__name__, data, path)
    return data


def _expect(ok: bool, what: str, data, path: str) -> None:
    if not ok:
        raise ValueError(f"{path}: expected {what}, got {reprlib.repr(data)}")
