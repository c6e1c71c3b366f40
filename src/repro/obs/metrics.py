"""One metrics registry: counters, gauges, histograms.

Histograms keep every observation (sessions observe at most a few
thousand values per metric), so quantiles are *exact* -- no sketch
error to reason about when a table in the paper is reproduced from
them.  The sorted view is cached and invalidated on write, so repeated
quantile reads cost one sort total.

Producers write themselves in: anything with telemetry has a
``metrics_into(registry)`` (the channel, the SFU node, the watchdog,
:class:`repro.perf.counters.CacheCounters`), and the registry knows
none of them.
"""

from __future__ import annotations

import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """All-samples histogram with exact quantiles."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: list[float] = []
        self._sorted: list[float] | None = None

    def observe(self, value: float) -> None:
        self._samples.append(float(value))
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return float(sum(self._samples))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self._samples else 0.0

    @property
    def max(self) -> float:
        return float(max(self._samples)) if self._samples else 0.0

    def quantile(self, q: float) -> float:
        """Exact quantile by linear interpolation; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        ordered = self._sorted
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create registry holding every metric of one session."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        """Look up a metric without creating it (KeyError when absent)."""
        with self._lock:
            return self._metrics[name]

    def to_dict(self) -> dict:
        """JSON-friendly snapshot of every metric, sorted by name."""
        with self._lock:
            return {name: self._metrics[name].to_dict() for name in sorted(self._metrics)}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counters and gauges into this one.

        Counters add.  Gauges need semantics: ``*peak`` gauges take the
        max (a fleet's peak is the max of its sessions' peaks), every
        other gauge *sums* -- the additive reading is the fleet-wide one
        for occupancy-style gauges (``sfu.receivers``,
        ``sfu.downlink.active``).
        """
        for name in other.names():
            metric = other.get(name)
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            else:
                gauge = self.gauge(name)
                if name.endswith("peak"):
                    gauge.set(max(gauge.value, metric.value))
                else:
                    gauge.set(gauge.value + metric.value)
