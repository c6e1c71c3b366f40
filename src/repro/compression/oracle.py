"""Draco-Oracle: the bandwidth-oracle point cloud baseline (section 4.1).

The paper's strongest point-cloud competitor: "given a target bandwidth
and a perfect estimate of a receiver's frustum (perfect culling), it
picks the highest quality compression for the point cloud that fits
within the target bandwidth", using an offline table mapping every
(compression level, quantization parameter) pair to compressed size and
encode time.  If no entry fits both the bandwidth budget and the
inter-frame compute deadline, the frame *stalls*.  The paper runs it at
15 fps because at 30 fps it stalls >90 percent of the time.

The offline profile here is built by actually encoding sample clouds at
every grid point; per-frame sizes and times are scaled by point count
(both are linear in points for octree coders, which is also how the
codec's calibrated time model behaves).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.draco import DracoCodec, DracoConfig, DracoEncodedCloud
from repro.geometry.pointcloud import PointCloud

__all__ = ["OracleProfile", "OracleChoice", "DracoOracle"]

# Draco exposes 31 quantization settings and 10 compression levels
# (section 4.1).  The octree coder saturates above ~14 bits for
# room-scale scenes, so the default grid samples the effective range;
# pass denser grids to OracleProfile.build for higher-fidelity tables.
DEFAULT_QUANTIZATION_GRID = (4, 6, 8, 10, 12, 14)
DEFAULT_LEVEL_GRID = (1, 5, 9)


@dataclass(frozen=True)
class ProfileEntry:
    """Per-(qp, level) profile: linear-in-points size and time models."""

    quantization_bits: int
    compression_level: int
    bytes_per_point: float
    seconds_per_point: float


@dataclass(frozen=True)
class OracleChoice:
    """The oracle's selection for one frame."""

    config: DracoConfig
    estimated_size_bytes: float
    estimated_time_s: float


class OracleProfile:
    """Offline (size, time) profile over the Draco parameter grid."""

    def __init__(self, entries: list[ProfileEntry]) -> None:
        if not entries:
            raise ValueError("profile needs at least one entry")
        # Sort by quality: quantization bits, then compression level.
        self.entries = sorted(
            entries, key=lambda e: (e.quantization_bits, e.compression_level)
        )

    @staticmethod
    def build(
        sample_clouds: list[PointCloud],
        quantization_grid: tuple[int, ...] = DEFAULT_QUANTIZATION_GRID,
        level_grid: tuple[int, ...] = DEFAULT_LEVEL_GRID,
    ) -> "OracleProfile":
        """Profile by encoding sample clouds at every grid point."""
        clouds = [c for c in sample_clouds if not c.is_empty]
        if not clouds:
            raise ValueError("need at least one non-empty sample cloud")
        entries = []
        total_points = sum(c.num_points for c in clouds)
        for qbits in quantization_grid:
            for level in level_grid:
                codec = DracoCodec(DracoConfig(qbits, level))
                total_bytes = 0
                total_time = 0.0
                for cloud in clouds:
                    encoded = codec.encode(cloud)
                    total_bytes += encoded.size_bytes
                    total_time += encoded.encode_time_s
                entries.append(
                    ProfileEntry(
                        quantization_bits=qbits,
                        compression_level=level,
                        bytes_per_point=total_bytes / total_points,
                        seconds_per_point=total_time / total_points,
                    )
                )
        return OracleProfile(entries)


class DracoOracle:
    """Online selector: best quality fitting bandwidth + compute budgets.

    ``time_multiplier`` maps simulator point counts to paper-equivalent
    compute cost: the 1/15 s deadline is wall-clock, so when frames are
    resolution-reduced by a factor F, encode-time estimates must be
    scaled back up by F to preserve the paper's compute pressure
    (sessions pass the raw-frame-size ratio here).
    """

    def __init__(
        self,
        profile: OracleProfile,
        fps: float,
        time_multiplier: float = 1.0,
    ) -> None:
        if fps <= 0:
            raise ValueError("fps must be positive")
        if time_multiplier <= 0:
            raise ValueError("time_multiplier must be positive")
        self.profile = profile
        self.fps = float(fps)
        self.time_multiplier = float(time_multiplier)

    @property
    def frame_interval_s(self) -> float:
        """Compute deadline per frame (the inter-frame interval)."""
        return 1.0 / self.fps

    def select(self, num_points: int, bandwidth_bps: float) -> OracleChoice | None:
        """Choose parameters for a frame of ``num_points`` culled points.

        Returns None when nothing fits (a stall, per the paper's
        accounting).
        """
        if num_points <= 0:
            raise ValueError("num_points must be positive")
        budget_bytes = bandwidth_bps / 8.0 * self.frame_interval_s
        deadline = self.frame_interval_s
        best: OracleChoice | None = None
        for entry in self.profile.entries:
            size = entry.bytes_per_point * num_points
            time_s = entry.seconds_per_point * num_points * self.time_multiplier
            if size <= budget_bytes and time_s <= deadline:
                best = OracleChoice(
                    config=DracoConfig(entry.quantization_bits, entry.compression_level),
                    estimated_size_bytes=size,
                    estimated_time_s=time_s,
                )
        return best

    def encode_frame(
        self, cloud: PointCloud, bandwidth_bps: float
    ) -> DracoEncodedCloud | None:
        """Select-and-encode one frame; None means a stall."""
        if cloud.is_empty:
            return None
        choice = self.select(cloud.num_points, bandwidth_bps)
        if choice is None:
            return None
        return DracoCodec(choice.config).encode(cloud)
