"""The video encoder and decoder.

Pipeline per plane (H.26x structure, simplified):

1. predict -- I-frames code pixels directly; P-frames code the residual
   against a motion-compensated reference (the previous *reconstructed*
   frame, so encoder and decoder never drift);
2. transform -- blockwise 8x8 orthonormal DCT;
3. quantize -- dead-zone uniform quantizer driven by QP, optionally
   frequency weighted;
4. entropy-code -- zigzag + coefficient-major DEFLATE.

The encoder exposes two entry points: :meth:`VideoEncoder.encode` (fixed
QP, used by the LiVo-NoAdapt baseline) and
:meth:`VideoEncoder.encode_to_target` (target byte budget in, QP chosen
by the rate controller -- the *direct rate adaptation* the paper's whole
design leans on).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.codec.blocks import DEFAULT_BLOCK_SIZE, merge_blocks, split_blocks
from repro.codec.dct import inverse_dct
from repro.codec.entropy import EFFORT, decode_levels
from repro.codec.frame import EncodedFrame, FrameType, PixelFormat
from repro.codec.motion import gather_prediction
from repro.codec.quant import QP_MAX, QP_MAX_EXTENDED, QP_MIN, dequantize
from repro.codec.rate_control import RateController
from repro.codec.yuv import rgb_to_ycbcr, ycbcr_to_rgb
from repro.perf import scratch
from repro.runtime.batchplane import (
    drive_serial,
    entropy_encode_request,
    motion_request,
    plane_transform_request,
)

__all__ = ["VideoCodecConfig", "VideoEncoder", "VideoDecoder"]

CODEC_SEARCH_RANGE = 1  # motion search window radius in pixels (0 = zero-motion)
# Chroma planes (a GRAY16 frame has none): frequency-weighting strength,
# and the extra QP codecs apply because they "compress the Y-channel at
# higher bitrates ... because humans are sensitive to luminance
# distortions" (paper section 3.2).
CHROMA_WEIGHT_STRENGTH = 1.2
CHROMA_QP_OFFSET = 6

_PLANE_HEADER = struct.Struct("<BII")
_PLANE_COUNT = {PixelFormat.RGB8: 3, PixelFormat.GRAY16: 1}


@dataclass(frozen=True)
class VideoCodecConfig:
    """Shared encoder/decoder parameters.

    Attributes:
        gop_size: I-frame period (an INTRA frame every ``gop_size`` frames).
        weight_strength: frequency-weighting strength for the luma plane;
            0 gives flat quantization (used for depth, where high-frequency
            discontinuities carry geometry).
        qp_max: largest legal QP for this stream.  8-bit color stays at
            the standard 51; the 16-bit Y depth mode uses the
            high-bit-depth extension so rate control has headroom.
        chroma_subsampling: encode chroma planes at half resolution
            (4:2:0, the mode production H.265 deployments use).  Off by
            default so rate/quality calibrations are subsampling-free;
            see benchmarks/bench_ablation_chroma.py for the trade-off.
    """

    gop_size: int = 30
    weight_strength: float = 0.6
    qp_max: int = QP_MAX
    chroma_subsampling: bool = False

    def __post_init__(self) -> None:
        if self.gop_size < 1:
            raise ValueError("gop_size must be at least 1")

    @staticmethod
    def for_depth(**overrides) -> "VideoCodecConfig":
        """Preset for the 16-bit depth stream: flat quantization.

        Depth discontinuities are high-frequency content that perceptual
        weighting would crush, producing exactly the artifacts the paper
        works to avoid (sections 3.2, 4.5).
        """
        return VideoCodecConfig(
            **{"weight_strength": 0.0, "qp_max": QP_MAX_EXTENDED, **overrides}
        )


@dataclass
class _PlaneCode:
    """Per-plane coded payload plus its reconstruction."""

    mv_bytes: bytes
    level_bytes: bytes
    reconstruction: np.ndarray


class _CodecCore:
    """Plane-level encode/decode shared by encoder and decoder.

    The weight matrices, quantization scales and motion offset table
    are read from the process-wide memo (:mod:`repro.perf.scratch`).
    """

    def __init__(self, config: VideoCodecConfig) -> None:
        self.config = config
        self._offsets = scratch.search_offsets(CODEC_SEARCH_RANGE)

    def plane_weights(self, plane_index: int, pixel_format: PixelFormat) -> np.ndarray | None:
        strength = (
            CHROMA_WEIGHT_STRENGTH
            if pixel_format is PixelFormat.RGB8 and plane_index > 0
            else self.config.weight_strength
        )
        if strength == 0.0:
            return None
        return scratch.weight_matrix(DEFAULT_BLOCK_SIZE, strength)

    def plane_qp(self, base_qp: int, plane_index: int, pixel_format: PixelFormat) -> int:
        if pixel_format is PixelFormat.RGB8 and plane_index > 0:
            return min(self.config.qp_max, base_qp + CHROMA_QP_OFFSET)
        return base_qp

    def encode_plane_steps(
        self,
        plane: np.ndarray,
        reference: np.ndarray | None,
        qp: int,
        weights: np.ndarray | None,
        value_range: tuple[float, float],
    ):
        """Plane encode as a request-yielding generator.

        The kernel-heavy steps -- motion search and the DCT/quant round
        trip -- are yielded as :class:`BatchRequest` jobs so a driver
        can resolve them per session (:func:`drive_serial`, which
        :meth:`VideoEncoder.encode` runs) or stacked across sessions
        (:class:`repro.runtime.batchplane.BatchPlane`).  Stream state
        never leaves the generator, so both drivers produce the same
        bytes by construction.
        """
        block_size = DEFAULT_BLOCK_SIZE
        height, width = plane.shape
        current_blocks = split_blocks(plane, block_size)

        if reference is None:
            predictor = np.zeros_like(current_blocks)
            mv_bytes = b""
        else:
            (mv_index, predictor) = (
                yield [motion_request(plane, reference, CODEC_SEARCH_RANGE, block_size)]
            )[0]
            mv_bytes = zlib.compress(mv_index.tobytes(), level=EFFORT)

        residual = current_blocks - predictor
        (levels, recon_delta) = (
            yield [plane_transform_request(residual, qp, weights, block_size)]
        )[0]
        level_bytes = (yield [entropy_encode_request(levels)])[0]

        recon_blocks = predictor + recon_delta
        reconstruction = np.clip(
            merge_blocks(recon_blocks, height, width, block_size), *value_range
        )
        # A reference plane: read-only, so a retry may keep the previous
        # frame's planes by reference instead of copying them.
        reconstruction.setflags(write=False)
        return _PlaneCode(mv_bytes, level_bytes, reconstruction)

    def _motion_vectors(self, mv_bytes: bytes, num_blocks: int) -> np.ndarray:
        """One offset index per block out of a plane's motion-vector stream.

        The stream is outside input: a wrong length or an index past the
        search window raises ``ValueError``, the decode chain's one
        error type, before anything is gathered with it.
        """
        if not mv_bytes:
            return np.zeros(num_blocks, dtype=np.uint8)
        try:
            mv_index = np.frombuffer(zlib.decompress(mv_bytes), dtype=np.uint8)
        except zlib.error as error:
            raise ValueError(f"corrupt motion-vector stream: {error}") from error
        if len(mv_index) != num_blocks:
            raise ValueError(f"{len(mv_index)} motion vectors for {num_blocks} blocks")
        if num_blocks and mv_index.max() >= len(self._offsets):
            raise ValueError(f"motion vector {mv_index.max()} outside the search window")
        return mv_index

    def decode_plane(
        self,
        mv_bytes: bytes,
        level_bytes: bytes,
        reference: np.ndarray | None,
        qp: int,
        weights: np.ndarray | None,
        height: int,
        width: int,
        value_range: tuple[float, float],
    ) -> np.ndarray:
        block_size = DEFAULT_BLOCK_SIZE
        levels = decode_levels(level_bytes)

        if reference is None:
            predictor = np.zeros_like(levels, dtype=np.float64)
        else:
            predictor = gather_prediction(
                reference, self._offsets, self._motion_vectors(mv_bytes, levels.shape[0]),
                block_size,
            )

        recon_blocks = predictor + inverse_dct(
            dequantize(levels, qp, weights, scale=scratch.quant_scale(qp, weights))
        )
        return np.clip(merge_blocks(recon_blocks, height, width, block_size), *value_range)


def _downsample_half(plane: np.ndarray) -> np.ndarray:
    """2x2 average pooling (edge-padded to even dimensions)."""
    height, width = plane.shape
    padded = np.pad(plane, ((0, height % 2), (0, width % 2)), mode="edge")
    return padded.reshape(
        padded.shape[0] // 2, 2, padded.shape[1] // 2, 2
    ).mean(axis=(1, 3))


def _upsample_double(plane: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor 2x upsampling, cropped to (height, width)."""
    doubled = np.repeat(np.repeat(plane, 2, axis=0), 2, axis=1)
    return doubled[:height, :width]


def _image_planes(
    image: np.ndarray, chroma_subsampling: bool = False
) -> tuple[list[np.ndarray], PixelFormat, tuple[float, float]]:
    """Split an input image into codec planes and identify its format."""
    image = np.asarray(image)
    if image.dtype == np.uint8 and image.ndim == 3 and image.shape[2] == 3:
        ycbcr = rgb_to_ycbcr(image)
        planes = [ycbcr[..., channel] for channel in range(3)]
        if chroma_subsampling:
            planes = [planes[0]] + [_downsample_half(p) for p in planes[1:]]
        return planes, PixelFormat.RGB8, (0.0, 255.0)
    if image.dtype == np.uint16 and image.ndim == 2:
        return [image.astype(np.float64)], PixelFormat.GRAY16, (0.0, 65535.0)
    raise ValueError(
        "unsupported image: expected (H, W, 3) uint8 or (H, W) uint16, "
        f"got shape {image.shape} dtype {image.dtype}"
    )


def _planes_to_image(
    planes: list[np.ndarray], pixel_format: PixelFormat, chroma_subsampling: bool = False
) -> np.ndarray:
    if pixel_format is PixelFormat.RGB8:
        if chroma_subsampling:
            height, width = planes[0].shape
            planes = [planes[0]] + [
                _upsample_double(p, height, width) for p in planes[1:]
            ]
        return ycbcr_to_rgb(np.stack(planes, axis=-1))
    return np.clip(np.rint(planes[0]), 0, 65535).astype(np.uint16)


def _plane_dims(
    plane_index: int, height: int, width: int,
    pixel_format: PixelFormat, chroma_subsampling: bool,
) -> tuple[int, int]:
    """Stored dimensions of one plane (chroma may be half resolution)."""
    if (
        pixel_format is PixelFormat.RGB8
        and chroma_subsampling
        and plane_index > 0
    ):
        return -(-height // 2), -(-width // 2)
    return height, width


def _pack_planes(codes: list[_PlaneCode]) -> bytes:
    parts = [struct.pack("<B", len(codes))]
    for code in codes:
        parts.append(_PLANE_HEADER.pack(1 if code.mv_bytes else 0,
                                        len(code.mv_bytes), len(code.level_bytes)))
        parts.append(code.mv_bytes)
        parts.append(code.level_bytes)
    return b"".join(parts)


def _unpack_planes(payload: bytes, pixel_format: PixelFormat) -> list[tuple[bytes, bytes]]:
    """``(mv_bytes, level_bytes)`` per plane; ``ValueError`` on a bad table."""
    if not payload:
        raise ValueError("empty frame payload")
    count = payload[0]
    if count != _PLANE_COUNT[pixel_format]:
        raise ValueError(f"{count} planes in a {pixel_format.value} frame")
    cursor = 1
    segments = []
    for _ in range(count):
        if cursor + _PLANE_HEADER.size > len(payload):
            raise ValueError("truncated plane header")
        _, mv_len, level_len = _PLANE_HEADER.unpack_from(payload, cursor)
        cursor += _PLANE_HEADER.size
        end = cursor + mv_len + level_len
        if end > len(payload):
            raise ValueError("truncated plane segment")
        segments.append((payload[cursor : cursor + mv_len], payload[cursor + mv_len : end]))
        cursor = end
    return segments


class VideoEncoder:
    """Stateful single-stream encoder."""

    def __init__(self, config: VideoCodecConfig | None = None) -> None:
        self.config = config or VideoCodecConfig()
        self.rate_controller = RateController(qp_max=self.config.qp_max)
        self._core = _CodecCore(self.config)
        self._reference: list[np.ndarray] | None = None
        self._frame_index = 0
        # The last frame's reconstructed planes and their format; the
        # image is built from them only when read.
        self._reconstructed: tuple[list[np.ndarray], PixelFormat] | None = None

    def reset(self) -> None:
        """Drop reference state; the next frame becomes an I-frame."""
        self._reference = None
        self._frame_index = 0

    @property
    def last_reconstruction(self) -> np.ndarray | None:
        """The last encoded frame's decoded-side image (None before any).

        Built afresh on each read from the reference planes, so an
        encoder whose caller never reads it never builds it.
        """
        if self._reconstructed is None:
            return None
        planes, pixel_format = self._reconstructed
        return _planes_to_image(planes, pixel_format, self.config.chroma_subsampling)

    def _next_frame_type(self, force_intra: bool) -> FrameType:
        if force_intra or self._reference is None:
            return FrameType.INTRA
        if self._frame_index % self.config.gop_size == 0:
            return FrameType.INTRA
        return FrameType.INTER

    def encode(
        self, image: np.ndarray, qp: int, force_intra: bool = False
    ) -> tuple[EncodedFrame, np.ndarray]:
        """Encode one frame at a fixed QP.

        Returns the encoded frame and its decoded-side reconstruction --
        bit-identical to what :class:`VideoDecoder` will produce, which is
        what LiVo's sender uses to estimate encoding quality without a
        round trip (section 3.3).
        """
        frame = drive_serial(self.encode_steps(image, qp, force_intra=force_intra))
        return frame, self.last_reconstruction

    def encode_steps(self, image: np.ndarray, qp: int, force_intra: bool = False):
        """:meth:`encode` as a request-yielding generator (batch plane).

        Returns the encoded frame alone; a caller that needs the
        reconstruction reads :attr:`last_reconstruction`.
        """
        if not QP_MIN <= qp <= self.config.qp_max:
            raise ValueError(
                f"QP must be within [{QP_MIN}, {self.config.qp_max}], got {qp}"
            )
        planes, pixel_format, value_range = _image_planes(
            image, self.config.chroma_subsampling
        )
        height, width = planes[0].shape
        frame_type = self._next_frame_type(force_intra)

        codes = []
        for index, plane in enumerate(planes):
            reference = (
                self._reference[index]
                if frame_type is FrameType.INTER and self._reference is not None
                else None
            )
            codes.append(
                (
                    yield from self._core.encode_plane_steps(
                        plane,
                        reference,
                        self._core.plane_qp(qp, index, pixel_format),
                        self._core.plane_weights(index, pixel_format),
                        value_range,
                    )
                )
            )

        self._reference = [code.reconstruction for code in codes]
        self._reconstructed = (self._reference, pixel_format)

        frame = EncodedFrame(
            frame_type=frame_type,
            pixel_format=pixel_format,
            qp=qp,
            sequence=self._frame_index,
            height=height,
            width=width,
            payload=_pack_planes(codes),
        )
        self._frame_index += 1
        return frame

    def encode_to_target(
        self, image: np.ndarray, target_bytes: int, force_intra: bool = False
    ) -> tuple[EncodedFrame, np.ndarray]:
        """Encode one frame aiming at a byte budget (direct rate adaptation).

        The rate controller proposes a QP from its rate model; after
        encoding, the observed (QP, size) pair updates the model.  One
        re-encode is attempted when the first try misses the budget badly,
        mirroring how production rate control recovers from scene changes.
        """
        frame = drive_serial(
            self.encode_to_target_steps(image, target_bytes, force_intra=force_intra)
        )
        return frame, self.last_reconstruction

    def encode_to_target_steps(
        self, image: np.ndarray, target_bytes: int, force_intra: bool = False
    ):
        """:meth:`encode_to_target` as a request-yielding generator;
        returns the encoded frame alone, as :meth:`encode_steps` does."""
        if target_bytes <= 0:
            raise ValueError("target_bytes must be positive")
        qp = self.rate_controller.propose_qp(target_bytes)
        # Snapshot stream state: a retry must replace the first attempt,
        # re-predicting from the *previous* frame's reconstruction --
        # otherwise encoder and decoder reference chains diverge.  An
        # encode replaces the reference list and never writes a plane
        # (they are read-only), so keeping the list is the snapshot.
        saved_reference = self._reference
        saved_index = self._frame_index
        frame = yield from self.encode_steps(image, qp, force_intra=force_intra)
        retry_qp = self.rate_controller.retry_qp(qp, frame.size_bytes, target_bytes)
        if retry_qp is not None:
            self._reference = saved_reference
            self._frame_index = saved_index
            frame = yield from self.encode_steps(image, retry_qp, force_intra=force_intra)
            qp = retry_qp
        self.rate_controller.update(qp, frame.size_bytes, target_bytes)
        return frame


class VideoDecoder:
    """Stateful single-stream decoder; must mirror the encoder's config."""

    def __init__(self, config: VideoCodecConfig | None = None) -> None:
        self.config = config or VideoCodecConfig()
        self._core = _CodecCore(self.config)
        self._reference: list[np.ndarray] | None = None

    def reset(self) -> None:
        """Drop reference state (e.g. after a PLI-triggered keyframe)."""
        self._reference = None

    def decode(self, frame: EncodedFrame) -> list[np.ndarray]:
        """Decode one frame to its reconstructed planes.

        The planes are read-only -- they are this decoder's next
        reference, kept by reference -- and :meth:`to_image` builds the
        frame's image from them, so a caller that needs no image never
        converts one.
        """
        if frame.frame_type is FrameType.INTER and self._reference is None:
            raise ValueError("cannot decode an INTER frame without a reference")
        value_range = (0.0, 255.0) if frame.pixel_format is PixelFormat.RGB8 else (0.0, 65535.0)
        segments = _unpack_planes(frame.payload, frame.pixel_format)

        planes = []
        for index, (mv_bytes, level_bytes) in enumerate(segments):
            reference = (
                self._reference[index] if frame.frame_type is FrameType.INTER else None
            )
            plane_height, plane_width = _plane_dims(
                index, frame.height, frame.width, frame.pixel_format,
                self.config.chroma_subsampling,
            )
            plane = self._core.decode_plane(
                mv_bytes,
                level_bytes,
                reference,
                self._core.plane_qp(frame.qp, index, frame.pixel_format),
                self._core.plane_weights(index, frame.pixel_format),
                plane_height,
                plane_width,
                value_range,
            )
            plane.setflags(write=False)
            planes.append(plane)
        self._reference = planes
        return planes

    def to_image(self, planes: list[np.ndarray]) -> np.ndarray:
        """The image of decoded planes: RGB8 from three, GRAY16 from one."""
        pixel_format = PixelFormat.RGB8 if len(planes) == 3 else PixelFormat.GRAY16
        return _planes_to_image(planes, pixel_format, self.config.chroma_subsampling)
