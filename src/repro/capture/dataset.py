"""The five evaluation videos (Table 3), as procedural scene specs.

The paper evaluates on five Panoptic-dataset sequences.  We reproduce
each as a procedural scene whose *complexity knobs* match the paper's
description: object count (people + props), degree of motion, and
spatial extent.  Paper-reported metadata (duration, object count, raw
frame size) is carried alongside so Table 3 can be regenerated and the
scaled-down simulator numbers compared against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.capture.scene import SAMPLE_BUDGET, Scene, make_scene

__all__ = ["VideoSpec", "PANOPTIC_VIDEOS", "load_video", "video_names"]


@dataclass(frozen=True)
class VideoSpec:
    """Metadata + generator parameters for one evaluation video."""

    name: str
    description: str
    paper_duration_s: int
    num_people: int
    num_props: int
    paper_objects: int
    paper_frame_size_mb: float
    motion_amplitude_m: float
    motion_frequency_hz: float
    seed: int

    def build_scene(self, sample_budget: int) -> Scene:
        """Instantiate the procedural scene for this video."""
        scene = make_scene(
            name=self.name,
            num_people=self.num_people,
            num_props=self.num_props,
            motion_amplitude_m=self.motion_amplitude_m,
            motion_frequency_hz=self.motion_frequency_hz,
            sample_budget=sample_budget,
            seed=self.seed,
        )
        return scene


# Table 3 of the paper.  People/prop splits are inferred from the video
# descriptions ("objects include people"); what matters downstream is the
# total object count and motion level.
PANOPTIC_VIDEOS: dict[str, VideoSpec] = {
    "band2": VideoSpec(
        name="band2",
        description="Musical performance",
        paper_duration_s=197,
        num_people=4,
        num_props=5,
        paper_objects=9,
        paper_frame_size_mb=11.1,
        motion_amplitude_m=0.18,
        motion_frequency_hz=0.8,
        seed=11,
    ),
    "dance5": VideoSpec(
        name="dance5",
        description="Dance",
        paper_duration_s=333,
        num_people=1,
        num_props=0,
        paper_objects=1,
        paper_frame_size_mb=10.8,
        motion_amplitude_m=0.35,
        motion_frequency_hz=1.2,
        seed=25,
    ),
    "office1": VideoSpec(
        name="office1",
        description="Person working",
        paper_duration_s=187,
        num_people=2,
        num_props=5,
        paper_objects=7,
        paper_frame_size_mb=10.6,
        motion_amplitude_m=0.06,
        motion_frequency_hz=0.3,
        seed=31,
    ),
    "pizza1": VideoSpec(
        name="pizza1",
        description="Food and party",
        paper_duration_s=47,
        num_people=6,
        num_props=8,
        paper_objects=14,
        paper_frame_size_mb=13.8,
        motion_amplitude_m=0.15,
        motion_frequency_hz=0.7,
        seed=47,
    ),
    "toddler4": VideoSpec(
        name="toddler4",
        description="A child playing games",
        paper_duration_s=127,
        num_people=2,
        num_props=1,
        paper_objects=3,
        paper_frame_size_mb=10.6,
        motion_amplitude_m=0.25,
        motion_frequency_hz=1.0,
        seed=53,
    ),
}


def video_names() -> list[str]:
    """Names of the five evaluation videos, in Table 3 order."""
    return list(PANOPTIC_VIDEOS)


def load_video(name: str, sample_budget: int = SAMPLE_BUDGET) -> tuple[VideoSpec, Scene]:
    """Look up a video spec and build its scene."""
    try:
        spec = PANOPTIC_VIDEOS[name]
    except KeyError:
        raise KeyError(
            f"unknown video {name!r}; available: {sorted(PANOPTIC_VIDEOS)}"
        ) from None
    return spec, spec.build_scene(sample_budget=sample_budget)
