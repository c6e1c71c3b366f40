"""Blockwise 2D DCT transform as two matrix products.

Type-II DCT with orthonormal scaling over the last two axes of a block
stack -- the transform stage shared by JPEG/H.26x-family codecs.  Like
the H.26x core transform it is a fixed matrix product.  With ``C`` the
orthonormal DCT-II basis of the block size ``B``::

    C[k, n] = a_k * cos(pi * (2n + 1) * k / 2B),  a_0 = sqrt(1/B), a_k = sqrt(2/B)

a block ``X`` goes to ``C @ X @ C.T`` and back by ``C.T @ Y @ C``, since
``C`` is orthogonal.  The basis is built once per block size and kept
read-only.

numpy applies each product block by block along the stack axis, so a
block's coefficients do not depend on what else is in the stack: the
transform of a stack equals the concatenated transforms of any split of
it, bit for bit, which is what lets the batch plane stack sessions'
planes and still hand each the bits of its own transform.  A single
``(N, B*B) @ (B*B, B*B)`` product against the Kronecker basis would be
faster, but BLAS picks its kernel by the row count, so a block's bits
would depend on the stack around it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["forward_dct", "inverse_dct"]


@lru_cache(maxsize=None)
def _basis(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only orthonormal DCT-II matrix of ``size`` and its transpose."""
    k = np.arange(size, dtype=np.float64)[:, None]
    n = np.arange(size, dtype=np.float64)[None, :]
    basis = np.cos(np.pi * (2.0 * n + 1.0) * k / (2.0 * size)) * np.sqrt(2.0 / size)
    basis[0] *= np.sqrt(0.5)
    transpose = np.ascontiguousarray(basis.T)
    basis.flags.writeable = False
    transpose.flags.writeable = False
    return basis, transpose


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DCT-II of each block in an ``(N, B, B)`` stack."""
    if blocks.ndim != 3:
        raise ValueError(f"expected (N, B, B) block stack, got {blocks.shape}")
    basis, transpose = _basis(blocks.shape[2])
    return basis @ blocks.astype(np.float64) @ transpose


def inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct`."""
    if coefficients.ndim != 3:
        raise ValueError(f"expected (N, B, B) coefficient stack, got {coefficients.shape}")
    basis, transpose = _basis(coefficients.shape[2])
    return transpose @ np.asarray(coefficients, dtype=np.float64) @ basis
