"""The eager receiver decode: both frames to whole images, then tiles.

The oracle for the tiles ``repro.core.receiver.LiVoReceiver.decode_pair``
builds on read: every frame is converted to an image, split by the
tiler (which also reads the marker), and its depth tiles unscaled to
millimetres.
"""

from __future__ import annotations

import numpy as np

from repro.codec.frame import EncodedFrame, FrameType
from repro.core.receiver import LiVoReceiver
from repro.depthcodec.scaling import unscale_depth


def eager_decode_pair(
    receiver: LiVoReceiver, color: EncodedFrame, depth: EncodedFrame
) -> tuple[int, list[np.ndarray], list[np.ndarray]]:
    """``(sequence, color_tiles, depth_tiles_mm)`` of a pair, decoded on
    ``receiver``'s decoders and tilers (use a receiver of its own)."""
    images = []
    for decoder, frame in ((receiver.color_decoder, color), (receiver.depth_decoder, depth)):
        if frame.frame_type is FrameType.INTRA:
            decoder.reset()
        images.append(decoder.to_image(decoder.decode(frame)))
    color_tiles, color_marker = receiver.color_tiler.decompose(images[0])
    depth_tiles, depth_marker = receiver.depth_tiler.decompose(images[1])
    if color_marker != depth_marker:
        raise ValueError(f"color marker {color_marker} != depth marker {depth_marker}")
    return color_marker, color_tiles, [unscale_depth(tile) for tile in depth_tiles]
