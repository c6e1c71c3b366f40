"""Codec scratch: the process-wide codec tables.

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
"""

from __future__ import annotations

import threading

import numpy as np

from repro.codec.motion import search_offsets as _search_offsets
from repro.codec.quant import qp_to_step
from repro.codec.quant import weight_matrix as _weight_matrix

__all__ = ["weight_matrix", "quant_scale", "search_offsets", "table_key"]

# The process-wide memo: every key asked so far, numbered densely, and
# the table each number names.  Tables live as long as the process, so
# a table's id() names it for good.  The lock guards the rare miss
# path: the service builds encoders on its HTTP thread while its worker
# thread encodes.
_NUMBERS: dict[tuple, int] = {}
_TABLES: list = []
_NUMBER_OF_TABLE: dict[int, int] = {}
_LOCK = threading.Lock()


def _shared(key: tuple, build):
    """The table of ``key``, building it on first ask."""
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
    return _TABLES[number]


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


def weight_matrix(block_size: int, strength: float) -> np.ndarray:
    """Frequency-weight matrix of (size, strength)."""
    return _shared(
        ("weights", block_size, strength),
        lambda: _weight_matrix(block_size, strength),
    )


def quant_scale(qp: float, weights: np.ndarray | None):
    """The quantization divisor ``step`` or ``step * weights``.

    Values are exactly what :func:`repro.codec.quant.quantize` computes
    internally, memoized per (qp, weight table).
    """
    return _shared(
        ("scale", qp, table_key(weights)),
        lambda: qp_to_step(qp) if weights is None else qp_to_step(qp) * weights,
    )


def search_offsets(search_range: int) -> tuple[tuple[int, int], ...]:
    """Motion offset table of a search range (a tuple: shared, so
    immutable)."""
    return _shared(("offsets", search_range), lambda: tuple(_search_offsets(search_range)))
