"""Codec scratch: process-wide codec tables, and per-stream arenas that
count their reads of them.

The block codec rebuilds the same small tables on every plane of every
frame -- the frequency weight matrix, the step-scaled quantization
divisor, the motion offset list.  Each is a pure function of a few
parameters, so one process-wide memo serves every stream: a fleet of
hundreds of encoders holds one divisor per (QP, weight table), not one
per encoder, and the memo is bounded by the QP range times the weight
tables.  Memoized tables are read-only arrays or tuples, so a
misbehaving caller cannot corrupt another stream's frames, and every
table is identical in value to what the pure ``weight_matrix`` /
``search_offsets`` / ``qp_to_step`` functions compute (the offset list
held as a tuple), so bitstreams equal those of a codec calling them
fresh per plane (pinned by ``TestScratchArena`` under tests/).

A :class:`ScratchArena` belongs to one ``_CodecCore`` and holds no
table and no work buffer (the motion kernel reads its candidates
through strided views and allocates only per-call scratch).  It records
which keys its stream has asked for, one bit per key, so its
``codec_scratch`` counters read exactly as private memos would: the
first ask for a key is a miss, every later one a hit.  Motion searches
are counted per (window, shape) the same way.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.codec.motion import search_offsets
from repro.codec.quant import qp_to_step, weight_matrix
from repro.perf.counters import CacheCounters

__all__ = ["ScratchArena", "table_key"]

# The process-wide memo: every key asked so far, numbered densely, and
# the table each number names.  Tables live as long as the process, so
# a table's id() names it for good.  The lock guards the rare miss
# path: the service builds encoders on its HTTP thread while its worker
# thread encodes.
_NUMBERS: dict[tuple, int] = {}
_TABLES: list = []
_NUMBER_OF_TABLE: dict[int, int] = {}
_LOCK = threading.Lock()


def _shared(key: tuple, build) -> tuple[int, object]:
    """``(number, table)`` of ``key``, building the table on first ask."""
    number = _NUMBERS.get(key)
    if number is None:
        with _LOCK:
            number = _NUMBERS.get(key)
            if number is None:
                table = build()
                if isinstance(table, np.ndarray):
                    table.setflags(write=False)
                    _NUMBER_OF_TABLE[id(table)] = len(_TABLES)
                number = len(_TABLES)
                _TABLES.append(table)
                _NUMBERS[key] = number
    return number, _TABLES[number]


def table_key(weights: np.ndarray | None):
    """A small hashable name for a weight table.

    A table from the shared memo is named by its number; any other
    array by its bytes.  Either way two names are equal only if the
    tables are, which is what a batch-plane bucket key needs.
    """
    if weights is None:
        return None
    number = _NUMBER_OF_TABLE.get(id(weights))
    if number is not None and _TABLES[number] is weights:
        return number
    return weights.tobytes()


class ScratchArena:
    """One stream's reads of the shared codec tables, hit/miss counted."""

    def __init__(self) -> None:
        # Bit n set: this stream has asked for shared key number n.
        self._asked = 0
        self._motion_keys: set[tuple[int, tuple[int, int]]] = set()
        self.counters = CacheCounters("codec_scratch")

    def _read(self, key: tuple, build):
        """The shared table of ``key``, counted as this stream's ask."""
        number, table = _shared(key, build)
        bit = 1 << number
        if self._asked & bit:
            self.counters.hit()
        else:
            self.counters.miss()
            self._asked |= bit
        return table

    # ------------------------------------------------------------------
    # Shared tables
    # ------------------------------------------------------------------

    def weight_matrix(self, block_size: int, strength: float) -> np.ndarray:
        """Frequency-weight matrix of (size, strength)."""
        return self._read(
            ("weights", block_size, strength),
            lambda: weight_matrix(block_size, strength),
        )

    def quant_scale(self, qp: float, weights: np.ndarray | None):
        """The quantization divisor ``step`` or ``step * weights``.

        Values are exactly what :func:`repro.codec.quant.quantize`
        computes internally, memoized per (qp, weight table).
        """
        return self._read(
            ("scale", qp, table_key(weights)),
            lambda: qp_to_step(qp) if weights is None else qp_to_step(qp) * weights,
        )

    def search_offsets(self, search_range: int) -> tuple[tuple[int, int], ...]:
        """Motion offset table of a search range (a tuple: shared, so
        immutable)."""
        return self._read(
            ("offsets", search_range), lambda: tuple(search_offsets(search_range))
        )

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
