"""Hit/miss accounting shared by every kernel cache.

Counters are deliberately dumb -- two integers -- so recording a hit
costs nothing measurable on the hot path.  They surface in the
``--profile`` output next to the stage-timing table, which is how a
regressed cache (0% hit rate) becomes visible instead of silently
falling back to the slow path.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheCounters", "BatchCounters"]


@dataclass
class CacheCounters:
    """Hit/miss tally for one cache."""

    name: str
    hits: int = 0
    misses: int = 0

    def hit(self, count: int = 1) -> None:
        self.hits += count

    def miss(self, count: int = 1) -> None:
        self.misses += count

    @property
    def lookups(self) -> int:
        """Total lookups recorded."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheCounters") -> None:
        """Fold another counter's tallies into this one."""
        self.hits += other.hits
        self.misses += other.misses

    def to_dict(self) -> dict:
        """JSON-friendly summary."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }

    def metrics_into(self, registry) -> None:
        """Register the tallies in a ``repro.obs`` registry as
        ``cache.<name>.hits`` / ``.misses`` counters and a ``.hit_rate``
        gauge."""
        prefix = f"cache.{self.name}"
        registry.counter(f"{prefix}.hits").inc(self.hits)
        registry.counter(f"{prefix}.misses").inc(self.misses)
        registry.gauge(f"{prefix}.hit_rate").set(round(self.hit_rate, 4))


@dataclass
class BatchCounters:
    """Batched-vs-scalar tally of one batch-plane kernel.

    Items that went through a batched call count as hits, items that
    ran alone count as misses, so ``to_dict`` reads like a cache's
    hits/misses/hit_rate with the batched fraction as the rate.
    """

    batches: int = 0
    batched_items: int = 0
    scalar_items: int = 0

    def batch(self, count: int) -> None:
        """Record one batched call covering ``count`` items."""
        self.batches += 1
        self.batched_items += count

    def scalar(self, count: int = 1) -> None:
        """Record items processed one at a time."""
        self.scalar_items += count

    @property
    def items(self) -> int:
        """Total items recorded."""
        return self.batched_items + self.scalar_items

    @property
    def batched_fraction(self) -> float:
        """Fraction of items that went through a batched call."""
        total = self.items
        return self.batched_items / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly summary (profile-table compatible)."""
        return {
            "hits": self.batched_items,
            "misses": self.scalar_items,
            "hit_rate": round(self.batched_fraction, 4),
            "batches": self.batches,
        }
