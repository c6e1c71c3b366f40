"""Per-encoder scratch arena: memoized tables + reusable buffers.

The block codec rebuilds the same small tables on every plane of every
frame -- the frequency weight matrix, the step-scaled quantization
divisor, the motion offset list -- and re-allocates the motion-search
plane stack each call.  One arena per codec core memoizes the tables
(keyed by the parameters that define them) and hands out persistent
buffers for the search stack.  Every memoized array is identical in
value to what the pure ``weight_matrix`` / ``search_offsets`` /
``qp_to_step`` functions compute, so bitstreams equal those of a codec
calling them fresh per plane (pinned by ``TestScratchArena`` under
tests/); memoized tables are marked read-only so a misbehaving caller
cannot corrupt later frames.

Arenas are owned by a single ``_CodecCore`` and never shared.
"""

from __future__ import annotations

import numpy as np

from repro.codec.motion import search_offsets
from repro.codec.quant import qp_to_step, weight_matrix
from repro.perf.counters import CacheCounters

__all__ = ["ScratchArena"]


class ScratchArena:
    """Memoized codec tables and reusable work buffers for one stream."""

    def __init__(self) -> None:
        self._weights: dict[tuple[int, float], np.ndarray] = {}
        self._scales: dict[tuple[float, bytes | None], np.ndarray | float] = {}
        self._offsets: dict[int, list[tuple[int, int]]] = {}
        self._shift_buffers: dict[tuple[int, tuple[int, int]], np.ndarray] = {}
        self.counters = CacheCounters("codec_scratch")

    # ------------------------------------------------------------------
    # Memoized tables
    # ------------------------------------------------------------------

    def weight_matrix(self, block_size: int, strength: float) -> np.ndarray:
        """Frequency-weight matrix, computed once per (size, strength)."""
        key = (block_size, strength)
        table = self._weights.get(key)
        if table is None:
            self.counters.miss()
            table = weight_matrix(block_size, strength)
            table.setflags(write=False)
            self._weights[key] = table
        else:
            self.counters.hit()
        return table

    def quant_scale(self, qp: float, weights: np.ndarray | None):
        """The quantization divisor ``step`` or ``step * weights``.

        Values are exactly what :func:`repro.codec.quant.quantize`
        computes internally, memoized per (qp, weights content).
        """
        key = (qp, None if weights is None else weights.tobytes())
        scale = self._scales.get(key)
        if scale is None:
            self.counters.miss()
            step = qp_to_step(qp)
            if weights is None:
                scale = step
            else:
                scale = step * weights
                scale.setflags(write=False)
            self._scales[key] = scale
        else:
            self.counters.hit()
        return scale

    def search_offsets(self, search_range: int) -> list[tuple[int, int]]:
        """Motion offset table, computed once per search range."""
        table = self._offsets.get(search_range)
        if table is None:
            self.counters.miss()
            table = search_offsets(search_range)
            self._offsets[search_range] = table
        else:
            self.counters.hit()
        return table

    # ------------------------------------------------------------------
    # Reusable buffers
    # ------------------------------------------------------------------

    def shift_buffer(self, num_offsets: int, shape: tuple[int, int]) -> np.ndarray:
        """Persistent ``(num_offsets, H, W)`` stack for shifted_planes.

        The stack is fully overwritten by every
        :func:`~repro.codec.motion.shifted_planes` call, so reuse cannot
        leak state between planes or frames.
        """
        key = (num_offsets, shape)
        buffer = self._shift_buffers.get(key)
        if buffer is None:
            self.counters.miss()
            buffer = np.empty((num_offsets, *shape), dtype=np.float64)
            self._shift_buffers[key] = buffer
        else:
            self.counters.hit()
        return buffer
