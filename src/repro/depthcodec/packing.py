"""RGB-channel depth packing (the prior-work baselines of Fig. 17).

Prior work "packs each depth pixel value into a 3-channel color pixel
(RGB) before encoding using 2D video codecs ... this approach can
introduce significant distortions, since video compression algorithms
exploit smoothness in natural images ... but depth information can
exhibit discontinuities" (paper section 3.2).

Two packings are implemented:

- **bit-split**: high byte in R, low byte in G.  The low byte is a
  sawtooth in depth (it wraps every 256 mm-steps), so smooth surfaces
  become high-frequency stripes that codecs destroy -- the clearest
  instance of the failure mode the paper describes.

- **triangle-wave** (Pece et al. [76] style): a coarse linear channel L
  plus two phase-shifted triangle waves Ha, Hb.  Triangle waves avoid
  the sawtooth's jumps; decoding picks, per pixel, whichever fine
  channel is farther from a fold and snaps it to the coarse estimate.
  This is the stronger RGB baseline.

Both are exactly invertible before compression (tested exhaustively);
their quality gap versus LiVo's scaled Y16 shows up only *after* the
lossy codec, which is the experiment Fig. 17 runs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_bitsplit_rgb",
    "unpack_bitsplit_rgb",
    "pack_triangle_rgb",
    "unpack_triangle_rgb",
    "TRIANGLE_PERIOD",
]

# Triangle-wave period as a fraction of the normalized depth range.
# Segment disambiguation tolerates coarse-channel error up to a quarter
# period; 1/16 keeps decoding robust to a couple of 8-bit code levels of
# codec noise on the coarse channel while the fine channels still add
# ~4 bits of precision beyond it.
TRIANGLE_PERIOD = 1.0 / 16.0


def pack_bitsplit_rgb(depth16: np.ndarray) -> np.ndarray:
    """Pack uint16 depth into (R=high byte, G=low byte, B=0)."""
    depth16 = np.asarray(depth16, dtype=np.uint16)
    rgb = np.zeros(depth16.shape + (3,), dtype=np.uint8)
    rgb[..., 0] = (depth16 >> 8).astype(np.uint8)
    rgb[..., 1] = (depth16 & 0xFF).astype(np.uint8)
    return rgb


def unpack_bitsplit_rgb(rgb: np.ndarray) -> np.ndarray:
    """Invert :func:`pack_bitsplit_rgb`."""
    rgb = np.asarray(rgb, dtype=np.uint16)
    return ((rgb[..., 0] << 8) | rgb[..., 1]).astype(np.uint16)


def _triangle(phase: np.ndarray) -> np.ndarray:
    """Triangle wave of a phase in period-2 units: up on [0,1], down on [1,2]."""
    wrapped = np.mod(phase, 2.0)
    return np.where(wrapped <= 1.0, wrapped, 2.0 - wrapped)


def pack_triangle_rgb(depth16: np.ndarray) -> np.ndarray:
    """Pack uint16 depth into (L, Ha, Hb) 8-bit channels."""
    depth16 = np.asarray(depth16, dtype=np.uint16)
    d = depth16.astype(np.float64) / 65535.0
    half = TRIANGLE_PERIOD / 2.0
    coarse = np.clip(np.rint(d * 255.0), 0, 255)
    ha = _triangle(d / half)
    hb = _triangle((d - TRIANGLE_PERIOD / 4.0) / half)
    rgb = np.stack(
        [
            coarse,
            np.clip(np.rint(ha * 255.0), 0, 255),
            np.clip(np.rint(hb * 255.0), 0, 255),
        ],
        axis=-1,
    )
    return rgb.astype(np.uint8)


def unpack_triangle_rgb(rgb: np.ndarray) -> np.ndarray:
    """Invert :func:`pack_triangle_rgb` (robust to small channel noise)."""
    rgb = np.asarray(rgb)
    coarse = rgb[..., 0].astype(np.float64) / 255.0
    ha = rgb[..., 1].astype(np.float64) / 255.0
    hb = rgb[..., 2].astype(np.float64) / 255.0
    half = TRIANGLE_PERIOD / 2.0

    # Candidate reconstructions from each fine channel, for the segment
    # indices nearest the coarse estimate.
    def reconstruct(fine: np.ndarray, shift: float) -> np.ndarray:
        base = (coarse - shift) / half
        k0 = np.floor(base)
        best = None
        best_err = None
        # dk = 0 first so exact ties resolve to the nearest segment.
        for dk in (0.0, -1.0, 1.0):
            k = k0 + dk
            even = np.mod(k, 2.0) == 0
            frac = np.where(even, fine, 1.0 - fine)
            candidate = (k + frac) * half + shift
            err = np.abs(candidate - coarse)
            # Depth is normalized to [0, 1]; candidates outside that range
            # come from a wrong segment index, so penalize them.  The
            # tolerance covers fine-channel quantization noise.
            tolerance = half / 255.0
            out_of_range = (candidate < -tolerance) | (candidate > 1.0 + tolerance)
            err = err + np.where(out_of_range, 1.0, 0.0)
            if best is None:
                best, best_err = candidate, err
            else:
                take = err < best_err
                best = np.where(take, candidate, best)
                best_err = np.where(take, err, best_err)
        return best

    d_a = reconstruct(ha, 0.0)
    d_b = reconstruct(hb, TRIANGLE_PERIOD / 4.0)
    # Use whichever channel sits farther from a fold (values near 0 or 1
    # lose precision under compression).
    fold_distance_a = np.minimum(ha, 1.0 - ha)
    fold_distance_b = np.minimum(hb, 1.0 - hb)
    d = np.where(fold_distance_a >= fold_distance_b, d_a, d_b)
    return np.clip(np.rint(d * 65535.0), 0, 65535).astype(np.uint16)
