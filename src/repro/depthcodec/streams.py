"""Depth stream codecs: depth image in, encoded frame out.

Each stream pairs a packing strategy with a stateful video
encoder/decoder, giving all three depth-encoding designs of Fig. 17 the
same interface:

- :class:`ScaledY16DepthStream` -- LiVo's design (scale to 16-bit, Y16);
- :class:`UnscaledY16DepthStream` -- naive 16-bit Y (Fig. A.1 artifacts);
- :class:`RGBPackedDepthStream` -- prior-work RGB packing (bit-split or
  triangle-wave).
"""

from __future__ import annotations

import numpy as np

from repro.codec.frame import EncodedFrame
from repro.codec.video import VideoCodecConfig, VideoDecoder, VideoEncoder
from repro.depthcodec.packing import (
    pack_bitsplit_rgb,
    pack_triangle_rgb,
    unpack_bitsplit_rgb,
    unpack_triangle_rgb,
)
from repro.depthcodec.scaling import scale_depth, unscale_depth

__all__ = [
    "DepthStreamCodec",
    "ScaledY16DepthStream",
    "UnscaledY16DepthStream",
    "RGBPackedDepthStream",
    "make_depth_stream",
]


class DepthStreamCodec:
    """Base: a packing strategy around a stateful video codec."""

    def __init__(self, config: VideoCodecConfig | None = None) -> None:
        self.config = config or VideoCodecConfig.for_depth()
        self.encoder = VideoEncoder(self.config)
        self.decoder = VideoDecoder(self.config)

    def _pack(self, depth_mm: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _unpack(self, image: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def encode(
        self,
        depth_mm: np.ndarray,
        qp: int | None = None,
        target_bytes: int | None = None,
        force_intra: bool = False,
    ) -> tuple[EncodedFrame, np.ndarray]:
        """Encode a depth image; returns the frame and the sender-side
        reconstructed depth (for LiVo's quality estimation loop).

        Exactly one of ``qp`` and ``target_bytes`` must be given.
        """
        if (qp is None) == (target_bytes is None):
            raise ValueError("provide exactly one of qp and target_bytes")
        packed = self._pack(np.asarray(depth_mm, dtype=np.uint16))
        if qp is not None:
            frame, recon = self.encoder.encode(packed, qp, force_intra=force_intra)
        else:
            frame, recon = self.encoder.encode_to_target(
                packed, int(target_bytes), force_intra=force_intra
            )
        return frame, self._unpack(recon)

    def decode(self, frame: EncodedFrame) -> np.ndarray:
        """Decode an encoded frame back to millimeter depth."""
        return self._unpack(self.decoder.to_image(self.decoder.decode(frame)))

    def reset(self) -> None:
        """Drop encoder and decoder reference state."""
        self.encoder.reset()
        self.decoder.reset()


class ScaledY16DepthStream(DepthStreamCodec):
    """LiVo's depth encoding: scale to full 16-bit range, code as Y16."""

    def _pack(self, depth_mm: np.ndarray) -> np.ndarray:
        return scale_depth(depth_mm)

    def _unpack(self, image: np.ndarray) -> np.ndarray:
        return unscale_depth(image)


class UnscaledY16DepthStream(DepthStreamCodec):
    """Naive 16-bit Y: raw millimeters in the Y channel (Fig. A.1)."""

    def _pack(self, depth_mm: np.ndarray) -> np.ndarray:
        return depth_mm

    def _unpack(self, image: np.ndarray) -> np.ndarray:
        return np.asarray(image, dtype=np.uint16)


class RGBPackedDepthStream(DepthStreamCodec):
    """Prior-work RGB packing coded through the 8-bit color path."""

    def __init__(
        self, config: VideoCodecConfig | None = None, packing: str = "bitsplit"
    ) -> None:
        if packing not in ("bitsplit", "triangle"):
            raise ValueError("packing must be 'bitsplit' or 'triangle'")
        # RGB packing rides the color path; keep flat quantization so the
        # comparison isolates the packing, not the weighting.
        super().__init__(config or VideoCodecConfig.for_depth())
        self.packing = packing

    def _pack(self, depth_mm: np.ndarray) -> np.ndarray:
        if self.packing == "bitsplit":
            return pack_bitsplit_rgb(depth_mm)
        return pack_triangle_rgb(depth_mm)

    def _unpack(self, image: np.ndarray) -> np.ndarray:
        if self.packing == "bitsplit":
            return unpack_bitsplit_rgb(image)
        return unpack_triangle_rgb(image)


def make_depth_stream(kind: str, **kwargs) -> DepthStreamCodec:
    """Factory over the three Fig. 17 depth-encoding designs.

    ``kind`` is one of ``scaled-y16`` (LiVo), ``unscaled-y16``,
    ``rgb-bitsplit``, ``rgb-triangle``.
    """
    if kind == "scaled-y16":
        return ScaledY16DepthStream(**kwargs)
    if kind == "unscaled-y16":
        return UnscaledY16DepthStream(**kwargs)
    if kind == "rgb-bitsplit":
        return RGBPackedDepthStream(packing="bitsplit", **kwargs)
    if kind == "rgb-triangle":
        return RGBPackedDepthStream(packing="triangle", **kwargs)
    raise ValueError(f"unknown depth stream kind {kind!r}")
