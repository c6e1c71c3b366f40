"""Bandwidth traces (Table 4).

The paper replays two real-world WiFi traces, scaled to broadband-class
capacity: *trace-1* (home WiFi, scaled 10x, mean ~217 Mbps) and
*trace-2* (mall mobility, scaled 15x, mean ~89 Mbps).  The raw captures
aren't redistributable, so we generate traces from a mean-reverting
AR(1) process in log space (bursty, temporally correlated -- the
qualitative character of WiFi throughput), then affinely calibrate each
trace so its mean / min / max / p10 / p90 match Table 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BandwidthTrace", "TraceStats", "trace_1", "trace_2", "constant_trace"]


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics in Mbps, as reported in Table 4."""

    mean: float
    max: float
    min: float
    p90: float
    p10: float


class BandwidthTrace:
    """Time series of link capacity, sampled on a uniform grid.

    Besides point lookups (:meth:`capacity_at`), the trace maintains a
    cumulative bits-served prefix integral ``C(t)`` over the looping
    capacity schedule.  ``C`` is piecewise linear and nondecreasing, so
    "when does the bottleneck finish serving ``b`` bits started at
    ``t``" is ``C^-1(C(t) + b)`` -- one ``searchsorted`` instead of an
    O(intervals) walk.
    Zero-rate intervals (outages) are plateaus of ``C``: the inverse
    lookup skips them without iterating or dividing by zero.
    """

    def __init__(self, capacities_mbps: np.ndarray, interval_s: float = 1.0, name: str = "trace"):
        capacities = np.asarray(capacities_mbps, dtype=np.float64)
        if capacities.ndim != 1 or len(capacities) == 0:
            raise ValueError("capacities must be a non-empty 1D array")
        if np.any(capacities < 0):
            raise ValueError("capacities must be non-negative")
        if not np.any(capacities > 0):
            raise ValueError("capacities must include at least one positive interval")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.capacities_mbps = capacities
        self.interval_s = float(interval_s)
        self.name = name
        # The capacities are fixed for the trace's life (the tables
        # below assume it too): a join or a replay's set-up reads the
        # mean here, without the percentiles of stats().
        self.mean_mbps = float(capacities.mean())
        # Cumulative-capacity prefix integral over one loop of the trace.
        self._rates_bps = capacities * 1e6
        cum = np.empty(len(capacities) + 1, dtype=np.float64)
        cum[0] = 0.0
        np.cumsum(self._rates_bps * self.interval_s, out=cum[1:])
        self._cum_bits = cum
        self._cum_tail = cum[1:]  # cum[k+1]: bits served by the end of interval k
        self._loop_bits = float(cum[-1])
        self._loop_duration = len(capacities) * self.interval_s

    @property
    def duration_s(self) -> float:
        """Total trace duration."""
        return len(self.capacities_mbps) * self.interval_s

    def capacity_at(self, t: float) -> float:
        """Capacity (Mbps) at time ``t``; the trace loops past its end."""
        index = int(t / self.interval_s) % len(self.capacities_mbps)
        return float(self.capacities_mbps[index])

    def capacity_bps_at(self, t: float) -> float:
        """Capacity in bits per second at time ``t``."""
        return self.capacity_at(t) * 1e6

    def cumulative_bits_at(self, t: float) -> float:
        """``C(t)``: bits the looping trace serves on ``[0, t]``."""
        k_global = int(t / self.interval_s)
        loops, k = divmod(k_global, len(self.capacities_mbps))
        dt = t - k_global * self.interval_s
        return float(loops * self._loop_bits + self._cum_bits[k] + self._rates_bps[k] * dt)

    def time_for_cumulative(self, target_bits: float) -> float:
        """``C^-1``: earliest time by which ``target_bits`` are served.

        On a plateau (zero-rate span) the earliest such time is the
        plateau's start, which is what a fluid FIFO queue wants: the
        packet finished transmitting when its last bit was served, not
        when capacity next returns.
        """
        loops = float(math.floor(target_bits / self._loop_bits))
        rem = target_bits - loops * self._loop_bits
        k = int(np.searchsorted(self._cum_tail, rem, side="left"))
        if k >= len(self.capacities_mbps):
            k = len(self.capacities_mbps) - 1
        rate = float(self._rates_bps[k])
        delta = rem - float(self._cum_bits[k])
        within = delta / rate if rate > 0.0 else 0.0
        return (loops * self._loop_duration + k * self.interval_s) + within

    def stats(self) -> TraceStats:
        """Table 4-style summary statistics."""
        c = self.capacities_mbps
        return TraceStats(
            mean=self.mean_mbps,
            max=float(c.max()),
            min=float(c.min()),
            p90=float(np.percentile(c, 90)),
            p10=float(np.percentile(c, 10)),
        )

    def scaled(self, factor: float) -> "BandwidthTrace":
        """Trace with every sample multiplied by ``factor`` (paper's 10x/15x)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return BandwidthTrace(
            self.capacities_mbps * factor, self.interval_s, f"{self.name}x{factor:g}"
        )


def _ar1_lognormal(
    num_samples: int, sigma: float, correlation: float, seed: int
) -> np.ndarray:
    """Mean-reverting AR(1) in log space, normalized to zero log-mean."""
    rng = np.random.default_rng(seed)
    noise_scale = sigma * np.sqrt(1.0 - correlation**2)
    log_values = np.empty(num_samples)
    log_values[0] = rng.normal(0.0, sigma)
    for index in range(1, num_samples):
        log_values[index] = correlation * log_values[index - 1] + rng.normal(0.0, noise_scale)
    return np.exp(log_values - log_values.mean())


def _calibrate(raw: np.ndarray, target: TraceStats) -> np.ndarray:
    """Quantile-map a raw shape series onto the target statistics.

    Rank-preserving piecewise-linear map anchored at the quantiles
    Table 4 reports (min, p10, p90, max, with the mean as the median
    anchor), followed by a small mean correction.  This keeps trace-2's
    deep lower tail (min 36 vs p10 80) that a plain affine map would
    flatten away.
    """
    anchors = np.percentile(raw, [0, 10, 50, 90, 100])
    if anchors[-1] - anchors[0] <= 0:
        raise ValueError("degenerate raw trace")
    # Strictly increasing anchor guard for np.interp.
    for index in range(1, len(anchors)):
        anchors[index] = max(anchors[index], anchors[index - 1] + 1e-9)
    values = np.array([target.min, target.p10, target.mean, target.p90, target.max])
    mapped = np.interp(raw, anchors, values)
    mapped = mapped + (target.mean - mapped.mean())
    return np.clip(mapped, target.min, target.max)


# Table 4 of the paper (already including the 10x / 15x scaling).
TRACE_1_STATS = TraceStats(mean=216.90, max=262.19, min=151.91, p90=234.41, p10=191.52)
TRACE_2_STATS = TraceStats(mean=89.20, max=106.37, min=36.35, p90=98.09, p10=80.52)


# Both paper traces report one capacity sample every half second.
TRACE_INTERVAL_S = 0.5


def trace_1(duration_s: float = 300.0, seed: int = 1) -> BandwidthTrace:
    """Home-WiFi-like trace, scaled: mean ~217 Mbps (Table 4, trace-1).

    Stationary environment: mild variability, strong correlation.
    """
    num_samples = max(2, int(round(duration_s / TRACE_INTERVAL_S)))
    raw = _ar1_lognormal(num_samples, sigma=0.10, correlation=0.95, seed=seed)
    return BandwidthTrace(_calibrate(raw, TRACE_1_STATS), TRACE_INTERVAL_S, "trace-1")


def trace_2(duration_s: float = 300.0, seed: int = 2) -> BandwidthTrace:
    """Mall-mobility-like trace, scaled: mean ~89 Mbps (Table 4, trace-2).

    Mobile environment: deeper fades, weaker correlation, occasional
    drops toward the 36 Mbps floor.
    """
    num_samples = max(2, int(round(duration_s / TRACE_INTERVAL_S)))
    raw = _ar1_lognormal(num_samples, sigma=0.35, correlation=0.85, seed=seed)
    # Inject occasional deep fades (walking behind obstacles).
    rng = np.random.default_rng(seed + 1000)
    fade_mask = rng.random(num_samples) < 0.02
    raw = np.where(fade_mask, raw * 0.35, raw)
    return BandwidthTrace(_calibrate(raw, TRACE_2_STATS), TRACE_INTERVAL_S, "trace-2")


def constant_trace(mbps: float, duration_s: float = 300.0) -> BandwidthTrace:
    """Fixed-capacity trace, for controlled experiments (e.g. Fig. 18)."""
    num_samples = max(2, int(duration_s))
    return BandwidthTrace(np.full(num_samples, mbps), 1.0, f"constant-{mbps:g}")
