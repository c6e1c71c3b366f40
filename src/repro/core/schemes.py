"""Scheme registry: the systems the evaluation compares (Table 2 rows).

Each entry records the capability columns of Table 2 for the schemes
this repository implements.  A scheme is its name: for the three LiVo
variants the row is also the one place that says whether the sender
culls (``culls``) and hands its encoders a target bitrate (``adapts``).

This module imports nothing from the package, so ``SessionConfig`` can
validate a name against it without loading any pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SchemeSpec", "SCHEMES", "LIVO_SCHEMES"]


@dataclass(frozen=True)
class SchemeSpec:
    """One comparison scheme and its Table 2 capability row."""

    name: str
    kind: str                     # Conferencing / Live / On-demand
    compression: str              # "2D" or "3D"
    content: str
    bandwidth_adaptive: str       # Direct / Indirect / Oracle / No
    fps: int
    culls: bool

    @property
    def adapts(self) -> bool:
        """Direct adaptation: the encoders are given a byte budget
        (LiVo-NoAdapt encodes at fixed QPs instead)."""
        return self.bandwidth_adaptive == "Direct"


SCHEMES: dict[str, SchemeSpec] = {
    "LiVo": SchemeSpec(
        name="LiVo",
        kind="Conferencing",
        compression="2D",
        content="Full-scene",
        bandwidth_adaptive="Direct",
        fps=30,
        culls=True,
    ),
    "LiVo-NoCull": SchemeSpec(
        name="LiVo-NoCull",
        kind="Conferencing",
        compression="2D",
        content="Full-scene",
        bandwidth_adaptive="Direct",
        fps=30,
        culls=False,
    ),
    "LiVo-NoAdapt": SchemeSpec(
        name="LiVo-NoAdapt",
        kind="Conferencing",
        compression="2D",
        content="Full-scene",
        bandwidth_adaptive="No",
        fps=30,
        culls=False,
    ),
    "Draco-Oracle": SchemeSpec(
        name="Draco-Oracle",
        kind="Live",
        compression="3D",
        content="Full-scene",
        bandwidth_adaptive="Oracle",
        fps=15,
        culls=True,   # perfect culling, by construction (section 4.1)
    ),
    "MeshReduce": SchemeSpec(
        name="MeshReduce",
        kind="Live",
        compression="3D",
        content="Full-scene",
        bandwidth_adaptive="Indirect",
        fps=15,
        culls=False,
    ),
}

# The schemes LiVo's own 2D pipeline runs (``LiVoSession``); the other
# rows are 3D baselines with replays of their own.
LIVO_SCHEMES = tuple(name for name, spec in SCHEMES.items() if spec.compression == "2D")
