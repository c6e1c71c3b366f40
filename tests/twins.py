"""Pinned outputs of the twin implementations that were deleted.

Every kernel decision used to ship two implementations behind a flag
(``kernel_cache``, ``batch_kernels``, ``shm``, ``batch_plane``,
``transport_fast_path`` and their copies further down), pinned against
each other by on/off parity tests.  ``tests/goldens/twin_digests.json``
holds what those twins agreed on: it was generated at the last commit
that had the flags, with every one of them **off**, so each digest is
the output of the implementation that no longer exists.  The one path
left must reproduce every digest byte for byte.

The file is never re-recorded: the code that produced it is gone.  The
exceptions are keys that recorded by name entries that were deleted
later.  Three recorded the emulated cache counters
(``registry:session_faulted``, ``session:draco_oracle``,
``session:meshreduce``), which described no real cache; the change that
deleted them re-recorded the three keys once.  The two ``registry:*``
keys recorded registry entries that copied another record (stage
timings, fault counts, cache tallies); the change that made the trace
the one record of stage time deleted the copies and re-recorded both
once more.  Each time, putting back exactly the deleted entries
reproduces each old digest.

The digests were recorded with ``scipy.fft``'s DCT, whose last-bit
rounding the package's matrix-product DCT does not share, so every test
that calls :func:`assert_pinned` requests the ``oracle_transform``
fixture (``tests/conftest.py``), which swaps that transform back in.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

PINNED: dict = json.loads(
    (Path(__file__).parent / "goldens" / "twin_digests.json").read_text()
)["digests"]


def _plain(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, bytes):
        return value.hex()
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value) -> str:
    """sha256 over the canonical JSON of ``value`` (floats by repr)."""
    text = json.dumps(value, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def assert_pinned(name: str, value) -> None:
    """``value`` must hash to what the deleted twin produced for ``name``."""
    assert digest(value) == PINNED[name], f"twin digest {name!r} diverged"
