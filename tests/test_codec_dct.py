"""The matrix-product DCT against its ``scipy.fft`` oracle.

Three properties on random ``(N, 8, 8)`` stacks, N = 1 always drawn:
agreement with ``tests/reference/dct.py`` to within a few hundred ulp of
the stack's largest magnitude, on 8-bit and 16-bit residual ranges; the
inverse undoing the forward transform to the same bound; and bit-exact
stack invariance, which the batch plane's stacking of sessions' planes
relies on (a bucket's result equals each item's own, bit for bit).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec.dct import _basis, forward_dct, inverse_dct
from tests.reference import dct as reference

# Every coefficient is two 8-term dot products with basis entries of
# magnitude <= 1/2, so each side's rounding error is a small multiple of
# eps * max|x|; 512 eps covers both sides with room to spare.
ULPS = 512 * np.finfo(np.float64).eps

VALUE_RANGES = st.sampled_from([255, 65535])  # 8-bit colour, 16-bit depth


def _stack(count: int, peak: int, seed: int) -> np.ndarray:
    """Integer-valued residual blocks in ``[-peak, peak]``, as the codec feeds them."""
    rng = np.random.default_rng(seed)
    return rng.integers(-peak, peak + 1, size=(count, 8, 8)).astype(np.float64)


def _bound(stack: np.ndarray) -> float:
    return ULPS * max(1.0, float(np.abs(stack).max(initial=0.0)))


@given(count=st.integers(1, 96), peak=VALUE_RANGES, seed=st.integers(0, 2**32 - 1))
@example(count=1, peak=255, seed=0)
@example(count=1, peak=65535, seed=0)
@settings(max_examples=60, deadline=None)
def test_agrees_with_the_scipy_oracle(count, peak, seed):
    blocks = _stack(count, peak, seed)
    coefficients = forward_dct(blocks)
    expected = reference.forward_dct(blocks)
    np.testing.assert_allclose(coefficients, expected, rtol=0, atol=_bound(blocks))
    np.testing.assert_allclose(
        inverse_dct(expected), reference.inverse_dct(expected),
        rtol=0, atol=_bound(expected),
    )


@given(count=st.integers(1, 96), peak=VALUE_RANGES, seed=st.integers(0, 2**32 - 1))
@example(count=1, peak=65535, seed=0)
@settings(max_examples=60, deadline=None)
def test_inverse_undoes_forward(count, peak, seed):
    blocks = _stack(count, peak, seed)
    np.testing.assert_allclose(
        inverse_dct(forward_dct(blocks)), blocks, rtol=0, atol=_bound(blocks)
    )


@given(
    count=st.integers(1, 160),
    peak=VALUE_RANGES,
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
)
@example(count=1, peak=65535, seed=0, cuts=[])
@example(count=1, peak=255, seed=0, cuts=[0.0, 1.0])
@settings(max_examples=80, deadline=None)
def test_stack_result_equals_its_splits(count, peak, seed, cuts):
    blocks = _stack(count, peak, seed)
    splits = sorted({int(cut * count) for cut in cuts})
    for transform, stack in (
        (forward_dct, blocks),
        (inverse_dct, forward_dct(blocks)),
    ):
        pieces = [transform(part) for part in np.split(stack, splits)]
        np.testing.assert_array_equal(transform(stack), np.concatenate(pieces))


def test_basis_is_shared_and_read_only():
    basis, transpose = _basis(8)
    assert _basis(8)[0] is basis
    assert not basis.flags.writeable and not transpose.flags.writeable
    np.testing.assert_allclose(basis @ transpose, np.eye(8), atol=8 * np.finfo(np.float64).eps)
