"""6-DoF poses and user interactivity traces.

A user trace is "the sequence of her instantaneous poses (position and
rotation)" recorded by the headset at the capture frame rate (paper
section 4.1).  The paper collected three traces per video under an IRB
study; those aren't public, so we generate smooth synthetic viewer
trajectories with the behaviour the paper describes: users dwell on a
subject, then move to a different viewpoint ("users often focus on a
few subjects at any given instant", section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import FPS
from repro.geometry.camera import SCENE_CENTER
from repro.geometry.transforms import euler_to_rotation, look_at, rotation_to_euler

__all__ = ["Pose", "PoseTrace", "synthetic_user_trace", "user_traces_for_video"]

# Synthetic viewers: an orbit about 2 m out, 1.2 s dwells at a viewpoint
# between 1 s moves, and 1 cm of head jitter.  A video has the paper's
# three user traces.
ORBIT_RADIUS_M = 2.0
DWELL_S = 1.2
MOVE_S = 1.0
JITTER_M = 0.01
NUM_TRACES = 3


@dataclass(frozen=True)
class Pose:
    """A 6-DoF headset pose: position (m) + intrinsic XYZ Euler angles (rad)."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=np.float64)
        orientation = np.asarray(self.orientation, dtype=np.float64)
        if position.shape != (3,) or orientation.shape != (3,):
            raise ValueError("position and orientation must be 3-vectors")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "orientation", orientation)

    def rotation_matrix(self) -> np.ndarray:
        """Rotation matrix mapping viewer-local axes to world axes."""
        return euler_to_rotation(*self.orientation)

    def as_vector(self) -> np.ndarray:
        """Flat 6-vector [x, y, z, pitch, yaw, roll]."""
        return np.concatenate([self.position, self.orientation])

    @staticmethod
    def from_vector(vector: np.ndarray) -> "Pose":
        """Inverse of :meth:`as_vector`."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (6,):
            raise ValueError("pose vector must have 6 elements")
        return Pose(vector[:3], vector[3:])

    @staticmethod
    def looking_at(position: np.ndarray, target: np.ndarray) -> "Pose":
        """Pose at ``position`` with view direction toward ``target``."""
        transform = look_at(position, target)
        return Pose(np.asarray(position, dtype=np.float64),
                    np.array(rotation_to_euler(transform[:3, :3])))


class PoseTrace:
    """A pose per frame at the capture rate (the headset's tracking stream)."""

    def __init__(self, poses: list[Pose], name: str = "trace") -> None:
        if not poses:
            raise ValueError("a trace needs at least one pose")
        self.poses = list(poses)
        self.name = name

    def __len__(self) -> int:
        return len(self.poses)

    def pose_at_frame(self, frame: int) -> Pose:
        """Pose for a frame index; clamps at the ends."""
        return self.poses[min(max(frame, 0), len(self.poses) - 1)]

    def pose_at_time(self, t: float) -> Pose:
        """Pose at a continuous time, nearest-frame sampling."""
        return self.pose_at_frame(int(round(t * FPS)))

    def as_matrix(self) -> np.ndarray:
        """All poses as an ``(N, 6)`` matrix (for training predictors)."""
        return np.stack([pose.as_vector() for pose in self.poses])


def _ease(t: np.ndarray) -> np.ndarray:
    """Cosine ease-in-out on [0, 1]: smooth velocity at segment ends."""
    return 0.5 - 0.5 * np.cos(np.pi * np.clip(t, 0.0, 1.0))


def synthetic_user_trace(num_frames: int, seed: int = 0, name: str = "user") -> PoseTrace:
    """Generate a dwell-and-move viewer trajectory around a scene.

    The viewer alternates between dwelling at a viewpoint (looking at a
    point near ``SCENE_CENTER``, with small head jitter) and smoothly
    moving to the next viewpoint on an orbit of varying radius/height.
    """
    if num_frames <= 0:
        raise ValueError("num_frames must be positive")
    scene_center = np.array(SCENE_CENTER)
    rng = np.random.default_rng(seed)

    # Viewpoints evolve as a random walk on (angle, radius, height):
    # people step to nearby vantage points at walking speed, they don't
    # teleport across the room.
    state = {
        "angle": rng.uniform(0, 2 * np.pi),
        "radius": ORBIT_RADIUS_M * rng.uniform(0.8, 1.1),
        "height": rng.uniform(1.4, 1.7),
    }

    def random_viewpoint() -> np.ndarray:
        state["angle"] += rng.uniform(-0.8, 0.8)
        state["radius"] = float(
            np.clip(
                state["radius"] + rng.uniform(-0.4, 0.4),
                ORBIT_RADIUS_M * 0.6,
                ORBIT_RADIUS_M * 1.3,
            )
        )
        state["height"] = float(np.clip(state["height"] + rng.uniform(-0.15, 0.15), 1.3, 1.8))
        return np.array(
            [
                state["radius"] * np.cos(state["angle"]),
                state["height"],
                state["radius"] * np.sin(state["angle"]),
            ]
        )

    dwell_frames = max(1, int(round(DWELL_S * FPS)))
    move_frames = max(1, int(round(MOVE_S * FPS)))

    positions = np.empty((num_frames, 3))
    targets = np.empty((num_frames, 3))
    current = np.array(
        [
            state["radius"] * np.cos(state["angle"]),
            state["height"],
            state["radius"] * np.sin(state["angle"]),
        ]
    )
    current_target = scene_center + rng.normal(0, 0.2, size=3)
    frame = 0
    while frame < num_frames:
        # Dwell phase.
        dwell_end = min(frame + dwell_frames, num_frames)
        positions[frame:dwell_end] = current
        targets[frame:dwell_end] = current_target
        frame = dwell_end
        if frame >= num_frames:
            break
        # Move phase toward the next viewpoint.
        next_position = random_viewpoint()
        next_target = scene_center + rng.normal(0, 0.2, size=3)
        move_end = min(frame + move_frames, num_frames)
        steps = move_end - frame
        alpha = _ease(np.arange(1, steps + 1) / move_frames)[:, None]
        positions[frame:move_end] = current + alpha * (next_position - current)
        targets[frame:move_end] = current_target + alpha * (next_target - current_target)
        frame = move_end
        current, current_target = next_position, next_target

    positions += rng.normal(0, JITTER_M, size=positions.shape)
    poses = [
        Pose.looking_at(positions[index], targets[index]) for index in range(num_frames)
    ]
    return PoseTrace(poses, name=name)


def user_traces_for_video(video_name: str, num_frames: int) -> list[PoseTrace]:
    """The paper's three user traces per video, as deterministic synthetics."""
    # zlib.crc32 is stable across interpreter runs (str hash is not).
    import zlib

    base_seed = zlib.crc32(video_name.encode()) % (2**31)
    return [
        synthetic_user_trace(
            num_frames,
            seed=base_seed + index,
            name=f"{video_name}-user{index}",
        )
        for index in range(NUM_TRACES)
    ]
