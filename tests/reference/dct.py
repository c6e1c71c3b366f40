"""Blockwise 2D DCT through ``scipy.fft``.

The oracle for ``repro.codec.dct``: the orthonormal type-II DCT of each
block in an ``(N, B, B)`` stack, computed by pocketfft.  The package's
matrix-product transform agrees with it to a few ulp of the block's
magnitude, not bit for bit: ``tests/test_codec_dct.py`` compares the two
within a bound, and the twin pins, recorded on this transform, swap it
back in (the ``oracle_transform`` fixture in ``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn, idctn


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DCT-II of each block in an ``(N, B, B)`` stack."""
    if blocks.ndim != 3:
        raise ValueError(f"expected (N, B, B) block stack, got {blocks.shape}")
    return dctn(blocks.astype(np.float64), axes=(1, 2), norm="ortho")


def inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct`."""
    if coefficients.ndim != 3:
        raise ValueError(f"expected (N, B, B) coefficient stack, got {coefficients.shape}")
    return idctn(np.asarray(coefficients, dtype=np.float64), axes=(1, 2), norm="ortho")
