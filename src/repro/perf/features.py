"""LRU cache for PointSSIM cloud features.

PointSSIM spends most of its time building each cloud's KD-tree and
per-point neighborhood features.  When the same cloud is scored more
than once -- a reference frame compared against several baselines, or
both directions of the symmetric pooling -- that build is pure waste.
The cache keys features by a content fingerprint
(:func:`~repro.perf.fingerprint.cloud_fingerprint`), so callers never
have to thread identity through their code: scoring the same *content*
twice hits regardless of where the arrays came from.

One cache serves a whole replay, and the replay's scoring thread fills
it: lookup, insert, eviction and the counters run under one lock.  The
feature build itself does not, so two threads that miss on the same
content may both build it (same bytes, last insert wins) rather than
wait on each other.

A scoring job looks up exactly two clouds, the truth and then what the
scheme showed, so a hit can only come from the previous job's pair:
the default capacity holds that pair and no more (each entry keeps a
KD-tree alive).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.perf.counters import CacheCounters

__all__ = ["FeatureCache"]

DEFAULT_CAPACITY = 2


class FeatureCache:
    """LRU map from cloud fingerprint to precomputed PointSSIM features."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.counters = CacheCounters("quality_features")

    def __len__(self) -> int:
        return len(self._entries)

    def features(self, cloud, k: int):
        """Features for ``cloud`` at neighborhood size ``k``, cached.

        Import is deferred to call time: this module must stay importable
        from :mod:`repro.metrics.pointssim` without a cycle.
        """
        from repro.metrics.pointssim import precompute_features

        key = self._key(cloud, k)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.counters.hit()
                return entry
            self.counters.miss()
        entry = precompute_features(cloud, k)
        with self._lock:
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return entry

    @staticmethod
    def _key(cloud, k: int) -> tuple:
        from repro.perf.fingerprint import cloud_fingerprint

        return (cloud_fingerprint(cloud), k)

    def clear(self) -> None:
        """Drop every entry (counters keep their history)."""
        with self._lock:
            self._entries.clear()
