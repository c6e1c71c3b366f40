"""Procedural animated 3D scenes.

Substitute for the Panoptic dataset videos (Table 3).  A scene is a set
of surface primitives -- articulated "people" built from ellipsoids,
box-shaped props/furniture, and a room shell (floor + walls).  Each
primitive can animate over time.  Scenes are *sampled*:
``sample_batches(t)`` returns a dense set of colored surface points,
one batch per primitive, that the renderer splats into per-camera RGB-D
images.

What matters for the reproduction is not photorealism but the variables
the paper's evaluation manipulates: the number of participants/objects
(scene complexity), the amount of motion (inter-frame redundancy), and
the spatial extent (culling effectiveness, depth range).  All three are
explicit parameters here.

A scene is fixed for its run, as a recording is: its primitives, their
per-primitive sample counts and its static batches never change once
built, so a capture is keyed by its sequence number alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SampleBatch",
    "SurfacePrimitive",
    "Ellipsoid",
    "Box",
    "RoomShell",
    "Person",
    "Scene",
    "make_scene",
]

# Uniform point density for surface sampling (points per square meter).
# Chosen so a default 10-camera 80x60 rig sees mostly hole-free images.
DEFAULT_DENSITY = 900.0

# Points a scene spreads over its surfaces per capture, by default.
SAMPLE_BUDGET = 60_000

# Every scene's room is this far from its center to each wall.
ROOM_HALF_WIDTH_M = 2.6

# One skin tone for every participant's head and arms.
SKIN_COLOR = (224.0, 172.0, 105.0)


def _positional_shade(points: np.ndarray, scale: float = 2.0, amplitude: float = 0.15) -> np.ndarray:
    """Smooth spatial shading in [1-amplitude, 1+amplitude].

    Real surfaces have *spatially coherent* texture; per-point random
    shading would be sensor-salt speckle that no 2D codec could
    compress, so shading is a smooth function of position.
    """
    phase = (
        np.sin(points[:, 0] * scale)
        + np.sin(points[:, 1] * scale * 1.7 + 1.0)
        + np.sin(points[:, 2] * scale * 1.3 + 2.0)
    ) / 3.0
    return (1.0 + amplitude * phase)[:, None]


@dataclass(frozen=True)
class SampleBatch:
    """One primitive's sampled surface points, tagged static or dynamic.

    Batch mode (:meth:`Scene.sample_batches`) is what makes incremental
    capture possible: a *static* batch is sampled once per scene and
    returns the identical arrays every frame, so a renderer can resolve
    its per-camera projection once; *dynamic* batches are resampled
    every frame.
    """

    points: np.ndarray
    colors: np.ndarray
    static: bool


class SurfacePrimitive:
    """Base class: something with a surface to sample at time t."""

    def area(self) -> float:
        """Approximate surface area in square meters."""
        raise NotImplementedError

    def is_static(self) -> bool:
        """True when ``sample`` output does not depend on time.

        Static primitives are the incremental-capture fast path: their
        sample batches (and per-camera projections) are computed once
        per scene.  Default is conservative -- dynamic.
        """
        return False

    def sample(self, t: float, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``count`` surface points at time ``t``.

        Returns ``(points, colors)`` with shapes ``(count, 3)``.
        """
        raise NotImplementedError


@dataclass
class Ellipsoid(SurfacePrimitive):
    """An ellipsoid with optional sinusoidal center motion."""

    center: np.ndarray
    radii: np.ndarray
    color: np.ndarray
    motion_amplitude: np.ndarray = field(default_factory=lambda: np.zeros(3))
    motion_frequency_hz: float = 0.0
    motion_phase: float = 0.0

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=np.float64)
        self.radii = np.asarray(self.radii, dtype=np.float64)
        self.color = np.asarray(self.color, dtype=np.float64)
        self.motion_amplitude = np.asarray(self.motion_amplitude, dtype=np.float64)
        if np.any(self.radii <= 0):
            raise ValueError("ellipsoid radii must be positive")

    def is_static(self) -> bool:
        """Static when the motion term vanishes."""
        return self.motion_frequency_hz == 0.0 or not np.any(self.motion_amplitude)

    def center_at(self, t: float) -> np.ndarray:
        """Animated center position at time ``t``."""
        if self.motion_frequency_hz == 0.0:
            return self.center
        offset = self.motion_amplitude * np.sin(
            2.0 * np.pi * self.motion_frequency_hz * t + self.motion_phase
        )
        return self.center + offset

    def area(self) -> float:
        # Thomsen's approximation for ellipsoid surface area.
        a, b, c = self.radii
        p = 1.6075
        return float(4.0 * np.pi * (((a * b) ** p + (a * c) ** p + (b * c) ** p) / 3.0) ** (1.0 / p))

    def sample(self, t: float, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        directions = rng.normal(size=(count, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        points = self.center_at(t) + directions * self.radii
        # Slight per-point shading variation so the color channel carries
        # real texture for the 2D codec to compress.
        shade = 0.8 + 0.4 * (directions[:, 1:2] + 1.0) / 2.0
        colors = np.clip(self.color * shade, 0, 255)
        return points, colors


@dataclass
class Box(SurfacePrimitive):
    """Axis-aligned box (furniture, props); static."""

    center: np.ndarray
    half_extents: np.ndarray
    color: np.ndarray

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=np.float64)
        self.half_extents = np.asarray(self.half_extents, dtype=np.float64)
        self.color = np.asarray(self.color, dtype=np.float64)
        if np.any(self.half_extents <= 0):
            raise ValueError("box half extents must be positive")

    def is_static(self) -> bool:
        return True

    def area(self) -> float:
        hx, hy, hz = self.half_extents
        return float(8.0 * (hx * hy + hy * hz + hx * hz))

    def sample(self, t: float, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        hx, hy, hz = self.half_extents
        face_areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy])
        face_areas = face_areas / face_areas.sum()
        faces = rng.choice(6, size=count, p=face_areas)
        uv = rng.uniform(-1.0, 1.0, size=(count, 2))
        points = np.empty((count, 3))
        axis = faces // 2            # 0:x, 1:y, 2:z
        sign = np.where(faces % 2 == 0, 1.0, -1.0)
        extents = self.half_extents
        for ax in range(3):
            mask = axis == ax
            others = [a for a in range(3) if a != ax]
            points[mask, ax] = sign[mask] * extents[ax]
            points[mask, others[0]] = uv[mask, 0] * extents[others[0]]
            points[mask, others[1]] = uv[mask, 1] * extents[others[1]]
        points += self.center
        colors = np.clip(self.color * _positional_shade(points), 0, 255)
        return points, colors


@dataclass
class RoomShell(SurfacePrimitive):
    """Floor plus four walls enclosing the capture space.

    Full-scene capture includes "furniture, the floor, walls, etc."
    (paper section 1) -- this is what makes full-scene frames an order of
    magnitude larger than single-person frames.
    """

    half_width: float = 3.0
    half_depth: float = 3.0
    wall_height: float = 2.5
    floor_color: np.ndarray = field(default_factory=lambda: np.array([120.0, 110.0, 100.0]))
    wall_color: np.ndarray = field(default_factory=lambda: np.array([200.0, 196.0, 188.0]))

    def is_static(self) -> bool:
        return True

    def area(self) -> float:
        floor = 4.0 * self.half_width * self.half_depth
        walls = 2.0 * self.wall_height * (2.0 * self.half_width + 2.0 * self.half_depth)
        return float(floor + walls)

    def sample(self, t: float, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        floor_area = 4.0 * self.half_width * self.half_depth
        wall_area = self.area() - floor_area
        n_floor = int(round(count * floor_area / (floor_area + wall_area)))
        n_wall = count - n_floor

        fx = rng.uniform(-self.half_width, self.half_width, size=n_floor)
        fz = rng.uniform(-self.half_depth, self.half_depth, size=n_floor)
        floor_points = np.stack([fx, np.zeros(n_floor), fz], axis=1)

        # Walls: pick one of four, parameterize along its length and height.
        wall_lengths = np.array(
            [2 * self.half_width, 2 * self.half_width, 2 * self.half_depth, 2 * self.half_depth]
        )
        probs = wall_lengths / wall_lengths.sum()
        which = rng.choice(4, size=n_wall, p=probs)
        along = rng.uniform(-1.0, 1.0, size=n_wall)
        height = rng.uniform(0.0, self.wall_height, size=n_wall)
        wall_points = np.empty((n_wall, 3))
        wall_points[:, 1] = height
        for wall in range(4):
            mask = which == wall
            if wall == 0:      # z = +half_depth
                wall_points[mask, 0] = along[mask] * self.half_width
                wall_points[mask, 2] = self.half_depth
            elif wall == 1:    # z = -half_depth
                wall_points[mask, 0] = along[mask] * self.half_width
                wall_points[mask, 2] = -self.half_depth
            elif wall == 2:    # x = +half_width
                wall_points[mask, 0] = self.half_width
                wall_points[mask, 2] = along[mask] * self.half_depth
            else:              # x = -half_width
                wall_points[mask, 0] = -self.half_width
                wall_points[mask, 2] = along[mask] * self.half_depth

        points = np.concatenate([floor_points, wall_points], axis=0)
        colors = np.concatenate(
            [
                np.tile(self.floor_color, (n_floor, 1)),
                np.tile(self.wall_color, (n_wall, 1)),
            ],
            axis=0,
        )
        return points, np.clip(colors * _positional_shade(points, scale=1.2, amplitude=0.1), 0, 255)


class Person(SurfacePrimitive):
    """An articulated participant built from ellipsoid body parts.

    Torso, head, two arms, and two legs, animated with a shared sway /
    dance motion whose amplitude and frequency control how much
    inter-frame change the codec sees.
    """

    def __init__(
        self,
        position: np.ndarray,
        motion_amplitude_m: float,
        motion_frequency_hz: float,
        height_m: float = 1.7,
        clothing_color: np.ndarray | None = None,
        phase: float = 0.0,
    ) -> None:
        position = np.asarray(position, dtype=np.float64)
        if clothing_color is None:
            clothing_color = np.array([60.0, 90.0, 160.0])
        skin_color = np.array(SKIN_COLOR)
        h = height_m
        sway = np.array([motion_amplitude_m, 0.0, motion_amplitude_m * 0.6])
        self.parts: list[Ellipsoid] = [
            # Torso.
            Ellipsoid(
                position + np.array([0.0, 0.62 * h, 0.0]),
                np.array([0.18, 0.28, 0.12]) * (h / 1.7),
                clothing_color,
                motion_amplitude=sway,
                motion_frequency_hz=motion_frequency_hz,
                motion_phase=phase,
            ),
            # Head.
            Ellipsoid(
                position + np.array([0.0, 0.92 * h, 0.0]),
                np.array([0.10, 0.12, 0.10]) * (h / 1.7),
                skin_color,
                motion_amplitude=sway * 1.2,
                motion_frequency_hz=motion_frequency_hz,
                motion_phase=phase + 0.3,
            ),
            # Arms.
            Ellipsoid(
                position + np.array([0.26, 0.6 * h, 0.0]),
                np.array([0.06, 0.3, 0.06]) * (h / 1.7),
                skin_color,
                motion_amplitude=sway * 1.8,
                motion_frequency_hz=motion_frequency_hz * 1.3,
                motion_phase=phase + 1.0,
            ),
            Ellipsoid(
                position + np.array([-0.26, 0.6 * h, 0.0]),
                np.array([0.06, 0.3, 0.06]) * (h / 1.7),
                skin_color,
                motion_amplitude=sway * 1.8,
                motion_frequency_hz=motion_frequency_hz * 1.3,
                motion_phase=phase + 2.2,
            ),
            # Legs.
            Ellipsoid(
                position + np.array([0.1, 0.25 * h, 0.0]),
                np.array([0.08, 0.42, 0.08]) * (h / 1.7),
                clothing_color * 0.6,
                motion_amplitude=sway * 0.4,
                motion_frequency_hz=motion_frequency_hz,
                motion_phase=phase,
            ),
            Ellipsoid(
                position + np.array([-0.1, 0.25 * h, 0.0]),
                np.array([0.08, 0.42, 0.08]) * (h / 1.7),
                clothing_color * 0.6,
                motion_amplitude=sway * 0.4,
                motion_frequency_hz=motion_frequency_hz,
                motion_phase=phase + np.pi,
            ),
        ]

    def is_static(self) -> bool:
        return all(part.is_static() for part in self.parts)

    def area(self) -> float:
        return sum(part.area() for part in self.parts)

    def sample(self, t: float, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        areas = np.array([part.area() for part in self.parts])
        weights = areas / areas.sum()
        counts = np.floor(weights * count).astype(int)
        counts[0] += count - counts.sum()
        chunks = [
            part.sample(t, int(n), rng)
            for part, n in zip(self.parts, counts)
            if n > 0
        ]
        points = np.concatenate([c[0] for c in chunks], axis=0)
        colors = np.concatenate([c[1] for c in chunks], axis=0)
        return points, colors


class Scene:
    """A fixed set of primitives sampled jointly at a fixed point budget."""

    def __init__(
        self,
        primitives: list[SurfacePrimitive],
        name: str = "scene",
        *,
        sample_budget: int,
        seed: int = 0,
    ) -> None:
        if not primitives:
            raise ValueError("a scene needs at least one primitive")
        if sample_budget < 1:
            raise ValueError("sample_budget must be at least 1")
        self.primitives = list(primitives)
        self.name = name
        self.sample_budget = int(sample_budget)
        self._seed = int(seed)
        # The budget split by surface area, the remainder to the largest
        # share: time-independent, so computed once.
        areas = np.array([p.area() for p in self.primitives])
        counts = np.floor(areas / areas.sum() * self.sample_budget).astype(int)
        counts[int(np.argmax(counts))] += self.sample_budget - counts.sum()
        self._counts = counts
        self._static_batches: dict[int, SampleBatch] = {}

    def sample_batches(self, t: float) -> list[SampleBatch]:
        """Sample the scene at time ``t`` as per-primitive batches.

        The batches together hold ``sample_budget`` points, split by
        surface area, in primitive order, with uint8 colors.  Every
        primitive draws from its *own* seeded RNG stream, so a static
        primitive's batch -- sampled on the first call and kept --
        stays byte-identical across frames, while dynamic primitives
        resample deterministically in ``(seed, t)``: capture replays are
        reproducible, and the sample pattern still varies frame to frame
        like real sensor noise does.
        """
        frame_key = int(round(t * 1000.0)) & 0xFFFFFFFF
        batches: list[SampleBatch] = []
        for index, (prim, n) in enumerate(zip(self.primitives, self._counts)):
            if n <= 0:
                continue
            static = prim.is_static()
            if static and index in self._static_batches:
                batches.append(self._static_batches[index])
                continue
            # Every seed keeps a 0 where a scene revision once stood:
            # dropping it would reseed every stream and change every capture.
            if static:
                seed = np.random.SeedSequence((self._seed, 0, index))
            else:
                seed = np.random.SeedSequence((self._seed, 0, index, frame_key))
            rng = np.random.default_rng(seed)
            points, colors = prim.sample(0.0 if static else t, int(n), rng)
            batch = SampleBatch(points, np.clip(colors, 0, 255).astype(np.uint8), static)
            if static:
                batch.points.setflags(write=False)
                batch.colors.setflags(write=False)
                self._static_batches[index] = batch
            batches.append(batch)
        return batches


def make_scene(
    name: str,
    num_people: int,
    num_props: int,
    motion_amplitude_m: float = 0.15,
    motion_frequency_hz: float = 0.5,
    sample_budget: int = SAMPLE_BUDGET,
    seed: int = 0,
) -> Scene:
    """Build a full-scene conference setting.

    ``num_people`` participants arranged in a ring, ``num_props``
    box-shaped objects scattered between them, inside a room shell.
    """
    rng = np.random.default_rng(seed)
    primitives: list[SurfacePrimitive] = [
        RoomShell(half_width=ROOM_HALF_WIDTH_M, half_depth=ROOM_HALF_WIDTH_M)
    ]
    for index in range(num_people):
        angle = 2.0 * np.pi * index / max(num_people, 1)
        radius = 0.0 if num_people == 1 else 1.1
        position = np.array([radius * np.cos(angle), 0.0, radius * np.sin(angle)])
        clothing = rng.uniform(40, 220, size=3)
        primitives.append(
            Person(
                position,
                height_m=float(rng.uniform(1.55, 1.85)),
                clothing_color=clothing,
                motion_amplitude_m=motion_amplitude_m,
                motion_frequency_hz=motion_frequency_hz,
                phase=float(rng.uniform(0, 2 * np.pi)),
            )
        )
    for _ in range(num_props):
        position = np.array(
            [
                rng.uniform(-ROOM_HALF_WIDTH_M * 0.7, ROOM_HALF_WIDTH_M * 0.7),
                rng.uniform(0.2, 0.9),
                rng.uniform(-ROOM_HALF_WIDTH_M * 0.7, ROOM_HALF_WIDTH_M * 0.7),
            ]
        )
        half_extents = rng.uniform(0.08, 0.35, size=3)
        position[1] = max(position[1], half_extents[1])
        primitives.append(Box(position, half_extents, rng.uniform(30, 230, size=3)))
    return Scene(primitives, name=name, sample_budget=sample_budget, seed=seed)
