"""Fault plans: the declarative side of chaos testing.

A :class:`FaultPlan` schedules faults against a replay session on the
session's own simulated clock, so a plan is a complete, reproducible
description of an adverse run.  The taxonomy covers every layer the
sender -> channel -> receiver chain crosses:

- **capture**: per-camera dropout (the camera produces nothing) or
  stale-frame windows (the camera repeats its last good frame), as a
  crashed or wedged device would;
- **link**: hard outages (every packet lost) and Gilbert-Elliott burst
  loss windows (the two-state good/bad Markov chain classically used to
  model bursty wireless loss);
- **encoder**: injected encode failures at chosen capture ticks;
- **bitstream**: corrupted frame pairs observed by the receiver.

Plans are plain frozen dataclasses; :class:`repro.faults.injector.
FaultInjector` executes them deterministically from the plan's seed.
A scenario artifact serializes a plan with the rest of its spec
(:meth:`repro.scenario.spec.ScenarioSpec.to_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CameraFault",
    "LinkOutage",
    "BurstLossWindow",
    "EncoderFault",
    "FrameCorruption",
    "FaultPlan",
    "chaos_plan",
]


def _check_window(start_s: float, end_s: float) -> None:
    if start_s < 0:
        raise ValueError("fault window start must be non-negative")
    if end_s <= start_s:
        raise ValueError("fault window must end after it starts")


def _check_no_overlap(windows, label: str) -> None:
    """Reject overlapping windows aimed at the same target.

    Two windows for the same target active at once have no defined
    semantics (which camera mode wins? do two loss chains both step?),
    so a plan that schedules them is a spec bug, not a chaos scenario.
    """
    ordered = sorted(windows, key=lambda w: (w.start_s, w.end_s))
    for previous, current in zip(ordered, ordered[1:]):
        if current.start_s < previous.end_s:
            raise ValueError(
                f"overlapping {label}: "
                f"[{previous.start_s}, {previous.end_s}) and "
                f"[{current.start_s}, {current.end_s})"
            )


def _check_unique_sequences(faults, label: str) -> None:
    seen: set[int] = set()
    for fault in faults:
        if fault.sequence in seen:
            raise ValueError(f"duplicate {label} at sequence {fault.sequence}")
        seen.add(fault.sequence)


@dataclass(frozen=True)
class CameraFault:
    """One camera misbehaving over a time window.

    ``mode="dropout"`` zeroes the camera's view (no points contributed);
    ``mode="stale"`` repeats the camera's last pre-fault frame, the way
    a wedged driver keeps returning its final capture.
    """

    camera_id: int
    start_s: float
    end_s: float
    mode: str = "dropout"

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if self.camera_id < 0:
            raise ValueError("camera_id must be non-negative")
        if self.mode not in ("dropout", "stale"):
            raise ValueError(f"unknown camera fault mode {self.mode!r}")

    def active(self, t: float) -> bool:
        """Whether the fault covers simulated time ``t``."""
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class LinkOutage:
    """A hard outage: every packet offered in the window is lost."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)

    def active(self, t: float) -> bool:
        """Whether the outage covers simulated time ``t``."""
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class BurstLossWindow:
    """Gilbert-Elliott burst loss active over a time window.

    ``p_enter`` is the good->bad transition probability per packet,
    ``p_exit`` the bad->good one, and ``loss_in_bad`` the drop
    probability while in the bad state (the good state is lossless).
    Mean burst length is ``1 / p_exit`` packets.
    """

    start_s: float
    end_s: float
    p_enter: float = 0.02
    p_exit: float = 0.25
    loss_in_bad: float = 0.8

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        for name in ("p_enter", "p_exit", "loss_in_bad"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    def active(self, t: float) -> bool:
        """Whether the window covers simulated time ``t``."""
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class EncoderFault:
    """The encoder fails outright at one capture tick."""

    sequence: int

    def __post_init__(self) -> None:
        if self.sequence < 0:
            raise ValueError("sequence must be non-negative")


@dataclass(frozen=True)
class FrameCorruption:
    """The receiver observes a corrupted (undecodable) frame pair."""

    sequence: int

    def __post_init__(self) -> None:
        if self.sequence < 0:
            raise ValueError("sequence must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, complete schedule of faults for one session replay."""

    seed: int = 0
    camera_faults: tuple[CameraFault, ...] = ()
    link_outages: tuple[LinkOutage, ...] = ()
    burst_loss: tuple[BurstLossWindow, ...] = ()
    encoder_faults: tuple[EncoderFault, ...] = ()
    corrupted_frames: tuple[FrameCorruption, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # Tolerate lists at construction; store tuples for hashability.
        object.__setattr__(self, "camera_faults", tuple(self.camera_faults))
        object.__setattr__(self, "link_outages", tuple(self.link_outages))
        object.__setattr__(self, "burst_loss", tuple(self.burst_loss))
        object.__setattr__(self, "encoder_faults", tuple(self.encoder_faults))
        object.__setattr__(self, "corrupted_frames", tuple(self.corrupted_frames))
        # Same-target overlap validation.  Camera faults may overlap in
        # time across *different* cameras (a rig-wide event); two
        # windows on one camera are contradictory.
        by_camera: dict[int, list[CameraFault]] = {}
        for fault in self.camera_faults:
            by_camera.setdefault(fault.camera_id, []).append(fault)
        for camera_id, faults in by_camera.items():
            _check_no_overlap(faults, f"camera faults for camera {camera_id}")
        _check_no_overlap(self.link_outages, "link outages")
        _check_no_overlap(self.burst_loss, "burst-loss windows")
        _check_unique_sequences(self.encoder_faults, "encoder fault")
        _check_unique_sequences(self.corrupted_frames, "frame corruption")

    @property
    def is_empty(self) -> bool:
        """True when the plan schedules no faults at all."""
        return not (
            self.camera_faults
            or self.link_outages
            or self.burst_loss
            or self.encoder_faults
            or self.corrupted_frames
        )


def chaos_plan(seed: int = 7) -> FaultPlan:
    """The canned mixed-fault plan the chaos suite replays.

    Within a ~5 s session: two cameras drop out for a second (one hard,
    one stale), the link suffers a full 1 s outage plus a burst-loss
    tail, one encode fails outright, and one frame pair arrives
    corrupted.  Every subsystem's recovery path is exercised.
    """
    return FaultPlan(
        seed=seed,
        camera_faults=(
            CameraFault(camera_id=1, start_s=0.8, end_s=1.8, mode="dropout"),
            CameraFault(camera_id=3, start_s=1.0, end_s=2.0, mode="stale"),
        ),
        link_outages=(LinkOutage(start_s=2.4, end_s=3.4),),
        burst_loss=(
            BurstLossWindow(start_s=3.6, end_s=4.2, p_enter=0.05, p_exit=0.3),
        ),
        encoder_faults=(EncoderFault(sequence=12),),
        corrupted_frames=(FrameCorruption(sequence=18),),
    )
