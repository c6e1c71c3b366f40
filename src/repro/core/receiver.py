"""The LiVo receiver pipeline (right half of Fig. 2, appendix A.1).

Decodes the color and depth streams, re-synchronizes them by the
embedded sequence marker, unprojects each camera tile into the world
frame using the camera parameters exchanged at setup, merges into the
reconstructed point cloud, voxelizes, and re-culls to the viewer's
actual (current) frustum before rendering.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.codec.frame import EncodedFrame, FrameType, PixelFormat
from repro.codec.video import VideoCodecConfig, VideoDecoder
from repro.core.config import RENDER_VOXEL_M, SessionConfig
from repro.depthcodec.scaling import unscale_depth
from repro.geometry.camera import RGBDCamera, unproject_views
from repro.geometry.frustum import Frustum
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxel import voxel_downsample
from repro.tiling.tiler import TileLayout, Tiler

__all__ = ["LiVoReceiver", "DecodedPair"]


class DecodedPair:
    """A decoded, re-synchronized (color, depth) tile pair.

    It holds each stream's tiler, decoder and decoded planes (read-only)
    and builds the per-camera tiles -- ``color_tiles`` (RGB) and
    ``depth_tiles_mm`` -- on first read, so a pair that is never
    reconstructed never converts its frame to RGB or unscales its depth.
    """

    def __init__(
        self,
        sequence: int,
        color: tuple[Tiler, VideoDecoder, list[np.ndarray]],
        depth: tuple[Tiler, VideoDecoder, list[np.ndarray]],
    ) -> None:
        self.sequence = sequence
        self._color = color
        self._depth = depth

    @cached_property
    def color_tiles(self) -> list[np.ndarray]:
        tiler, decoder, planes = self._color
        return tiler.decompose(decoder.to_image(planes))[0]

    @cached_property
    def depth_tiles_mm(self) -> list[np.ndarray]:
        tiler, decoder, planes = self._depth
        tiles, _ = tiler.decompose(decoder.to_image(planes))
        return [unscale_depth(tile) for tile in tiles]


class LiVoReceiver:
    """Stateful receiver: decode + untile + reconstruct + render prep."""

    def __init__(
        self,
        cameras: list[RGBDCamera],
        config: SessionConfig,
    ) -> None:
        self.cameras = cameras
        self.config = config
        intrinsics = cameras[0].intrinsics
        self.layout = TileLayout.for_cameras(
            len(cameras), intrinsics.height, intrinsics.width
        )
        self.color_tiler = Tiler(self.layout, is_color=True)
        self.depth_tiler = Tiler(self.layout, is_color=False)
        self.color_decoder = VideoDecoder(VideoCodecConfig(gop_size=config.gop_size))
        self.depth_decoder = VideoDecoder(VideoCodecConfig.for_depth(gop_size=config.gop_size))
        self._last_color_sequence: int | None = None
        self._last_depth_sequence: int | None = None
        self.last_good_pair: DecodedPair | None = None
        self.decode_failures = 0

    def _chain_ok(self, last: int | None, frame: EncodedFrame) -> bool:
        """A frame is decodable iff it's INTRA or continues the chain."""
        if frame.frame_type is FrameType.INTRA:
            return True
        return last is not None and frame.sequence == last + 1

    def can_decode(self, color: EncodedFrame, depth: EncodedFrame) -> bool:
        """Whether both streams' reference chains admit this pair."""
        return self._chain_ok(self._last_color_sequence, color) and self._chain_ok(
            self._last_depth_sequence, depth
        )

    def decode_pair(self, color: EncodedFrame, depth: EncodedFrame) -> DecodedPair:
        """Decode a pair and re-synchronize via the embedded markers.

        Raises ValueError if the pair breaks the prediction chain, a
        frame's header does not describe the tile layout, or the decoded
        markers disagree (streams out of sync).  The returned pair
        builds its tiles on first read.
        """
        if not self.can_decode(color, depth):
            raise ValueError(
                "reference chain broken; wait for a keyframe (PLI recovery)"
            )
        self._check_frame(color, PixelFormat.RGB8)
        self._check_frame(depth, PixelFormat.GRAY16)
        if color.frame_type is FrameType.INTRA:
            self.color_decoder.reset()
        if depth.frame_type is FrameType.INTRA:
            self.depth_decoder.reset()
        color_planes = self.color_decoder.decode(color)
        depth_planes = self.depth_decoder.decode(depth)
        self._last_color_sequence = color.sequence
        self._last_depth_sequence = depth.sequence

        # Only the marker rows are converted here; the tiles wait for a read.
        rows = self.layout.marker_slice
        color_marker = self.color_tiler.read_marker(
            self.color_decoder.to_image([plane[rows] for plane in color_planes])
        )
        depth_marker = self.depth_tiler.read_marker(
            self.depth_decoder.to_image([depth_planes[0][rows]])
        )
        if color_marker != depth_marker:
            raise ValueError(
                f"stream desynchronization: color marker {color_marker} != "
                f"depth marker {depth_marker}"
            )
        pair = DecodedPair(
            color_marker,
            (self.color_tiler, self.color_decoder, color_planes),
            (self.depth_tiler, self.depth_decoder, depth_planes),
        )
        self.last_good_pair = pair
        return pair

    def _check_frame(self, frame: EncodedFrame, pixel_format: PixelFormat) -> None:
        """A frame must be this stream's format at the tiled frame's size
        (checked before its header sizes anything)."""
        layout = self.layout
        expected = (pixel_format, layout.frame_height, layout.frame_width)
        if (frame.pixel_format, frame.height, frame.width) != expected:
            raise ValueError(
                f"expected a {layout.frame_height}x{layout.frame_width} "
                f"{pixel_format.value} frame, got {frame.height}x{frame.width} "
                f"{frame.pixel_format.value}"
            )

    def reset_streams(self) -> None:
        """Drop all decoder state after a poisoned bitstream.

        Both prediction chains restart, so only an INTRA pair is
        accepted next -- the session couples this with a PLI-style
        keyframe request toward the sender.
        """
        self.color_decoder.reset()
        self.depth_decoder.reset()
        self._last_color_sequence = None
        self._last_depth_sequence = None

    def decode_pair_safe(self, color: bytes, depth: bytes) -> DecodedPair | None:
        """Parse and decode a pair as it came off the wire, absorbing
        corrupt or chain-breaking input.

        Returns None instead of raising when the pair is undecodable
        (a cut or mangled frame buffer, entropy-stream damage, marker
        desync, or a broken reference chain); after damage, decoder
        state is reset so the streams resynchronize on the next
        keyframe.  The caller is expected to fall back to
        :meth:`freeze_frame`.
        """
        try:
            color_frame = EncodedFrame.from_bytes(color)
            depth_frame = EncodedFrame.from_bytes(depth)
            if not self.can_decode(color_frame, depth_frame):
                return None
            return self.decode_pair(color_frame, depth_frame)
        except Exception:
            # A corrupt bitstream can fail anywhere from the frame
            # header through the decode chain (struct framing, zlib
            # streams, marker checks); all of it means the same thing --
            # this pair is lost.
            self.decode_failures += 1
            self.reset_streams()
            return None

    def freeze_frame(self) -> DecodedPair | None:
        """Last successfully decoded pair (frame-freeze fallback)."""
        return self.last_good_pair

    def reconstruct(self, pair: DecodedPair) -> PointCloud:
        """Unproject every camera tile and merge into one point cloud
        (all cameras in one :func:`~repro.geometry.camera.unproject_views`
        structure-of-arrays pass)."""
        return unproject_views(self.cameras, pair.depth_tiles_mm, pair.color_tiles)

    def render_view(
        self,
        cloud: PointCloud,
        actual_frustum: Frustum,
        voxel_m: float | None = None,
    ) -> PointCloud:
        """Voxelize then re-cull to the viewer's current frustum.

        This is the receiver-side render prep of appendix A.1: the
        received cloud may include guard-band content; rendering culls
        it to the actual view and voxelizes to bound draw cost.
        ``voxel_m`` overrides the configured render voxel (the
        degradation ladder's coarse-voxel rung).
        """
        if cloud.is_empty:
            return cloud
        voxelized = voxel_downsample(cloud, voxel_m or RENDER_VOXEL_M)
        return voxelized.select(actual_frustum.contains(voxelized.positions))
