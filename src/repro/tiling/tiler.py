"""The tiler: N per-camera images <-> one composed video frame.

Tiles occupy fixed grid positions ("images from the same camera are
located at the same spot in the tiled image", paper section 3.2), so the
2D codec's inter-frame prediction sees stationary content.  A marker
strip along the bottom carries the frame sequence number (appendix A.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.tiling.marker import MARKER_HEIGHT, decode_marker, encode_marker

__all__ = ["TileLayout", "Tiler"]


@dataclass(frozen=True)
class TileLayout:
    """Grid geometry for composing ``num_tiles`` images of one size."""

    num_tiles: int
    tile_height: int
    tile_width: int
    rows: int
    cols: int

    @staticmethod
    def for_cameras(num_tiles: int, tile_height: int, tile_width: int) -> "TileLayout":
        """Choose a near-square grid (10 cameras -> 2 x 5, like Fig. 3)."""
        if num_tiles <= 0:
            raise ValueError("num_tiles must be positive")
        if tile_height <= 0 or tile_width <= 0:
            raise ValueError("tile dimensions must be positive")
        rows = int(math.floor(math.sqrt(num_tiles)))
        while num_tiles % rows != 0:
            rows -= 1
        cols = num_tiles // rows
        return TileLayout(num_tiles, tile_height, tile_width, rows, cols)

    @property
    def frame_height(self) -> int:
        """Composed frame height including the marker strip."""
        return self.rows * self.tile_height + MARKER_HEIGHT

    @property
    def frame_width(self) -> int:
        """Composed frame width."""
        return self.cols * self.tile_width

    def tile_slice(self, index: int) -> tuple[slice, slice]:
        """Row/column slices of tile ``index`` within the composed frame."""
        if not 0 <= index < self.num_tiles:
            raise IndexError(f"tile index {index} out of range")
        row, col = divmod(index, self.cols)
        return (
            slice(row * self.tile_height, (row + 1) * self.tile_height),
            slice(col * self.tile_width, (col + 1) * self.tile_width),
        )

    @property
    def marker_slice(self) -> tuple[slice, slice]:
        """Slices of the marker strip (bottom of the frame)."""
        return slice(self.rows * self.tile_height, self.frame_height), slice(
            0, self.frame_width
        )


class Tiler:
    """Compose/decompose per-camera images for one stream (color or depth)."""

    def __init__(self, layout: TileLayout, is_color: bool) -> None:
        self.layout = layout
        self.is_color = is_color
        self._high = 255 if is_color else 65535
        self._dtype = np.uint8 if is_color else np.uint16

    def compose(self, images: list[np.ndarray], sequence: int) -> np.ndarray:
        """Tile per-camera images into one frame with a sequence marker."""
        layout = self.layout
        if len(images) != layout.num_tiles:
            raise ValueError(f"expected {layout.num_tiles} images, got {len(images)}")
        shape: tuple[int, ...] = (layout.frame_height, layout.frame_width)
        if self.is_color:
            shape = shape + (3,)
        frame = np.zeros(shape, dtype=self._dtype)
        for index, image in enumerate(images):
            image = np.asarray(image, dtype=self._dtype)
            expected = (layout.tile_height, layout.tile_width) + ((3,) if self.is_color else ())
            if image.shape != expected:
                raise ValueError(f"tile {index}: expected shape {expected}, got {image.shape}")
            rows, cols = layout.tile_slice(index)
            frame[rows, cols] = image
        marker = encode_marker(sequence, layout.frame_width, self._high, self._dtype)
        rows, cols = layout.marker_slice
        if self.is_color:
            frame[rows, cols] = marker[..., None]
        else:
            frame[rows, cols] = marker
        return frame

    def decompose(self, frame: np.ndarray) -> tuple[list[np.ndarray], int]:
        """Split a (decoded, possibly distorted) frame back into tiles.

        Returns the per-camera images and the decoded sequence number.
        """
        layout = self.layout
        expected = (layout.frame_height, layout.frame_width) + ((3,) if self.is_color else ())
        frame = np.asarray(frame)
        if frame.shape != expected:
            raise ValueError(f"expected frame shape {expected}, got {frame.shape}")
        images = []
        for index in range(layout.num_tiles):
            rows, cols = layout.tile_slice(index)
            images.append(frame[rows, cols].copy())
        return images, self.read_marker(frame[layout.marker_slice])

    def read_marker(self, strip: np.ndarray) -> int:
        """Sequence number out of a frame's (decoded) marker strip."""
        if self.is_color:
            strip = strip.mean(axis=2)
        return decode_marker(strip, self._high)
