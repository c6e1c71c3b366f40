"""Per-encoder scratch arena: memoized codec tables.

The block codec rebuilds the same small tables on every plane of every
frame -- the frequency weight matrix, the step-scaled quantization
divisor, the motion offset list.  One arena per codec core memoizes
them, keyed by the parameters that define them.  It holds no work
buffers: the motion kernel reads its candidates through strided views
and allocates only per-call scratch, so an arena stays a few small
tables however many plane shapes its stream has seen.  Motion searches
are counted per (window, shape) all the same.  Every memoized array is
identical in value to what the pure ``weight_matrix`` / ``search_offsets`` /
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
    """Memoized codec tables for one stream."""

    def __init__(self) -> None:
        self._weights: dict[tuple[int, float], np.ndarray] = {}
        self._scales: dict[tuple[float, bytes | None], np.ndarray | float] = {}
        self._offsets: dict[int, list[tuple[int, int]]] = {}
        self._motion_keys: set[tuple[int, tuple[int, int]]] = set()
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

    def count_motion_search(self, num_offsets: int, shape: tuple[int, int]) -> None:
        """Count one motion search of ``shape`` planes over ``num_offsets``.

        Nothing is held -- the kernel allocates its own per-call
        scratch -- but the first search of each (window, shape) counts
        a miss and later ones hit, so ``codec_scratch`` counters track
        the set of search shapes a stream has seen.
        """
        key = (num_offsets, shape)
        if key in self._motion_keys:
            self.counters.hit()
        else:
            self.counters.miss()
            self._motion_keys.add(key)
