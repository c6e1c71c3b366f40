"""Tests for bandwidth trace generation (Table 4)."""

import numpy as np
import pytest

from repro.transport.traces import (
    TRACE_1_STATS,
    TRACE_2_STATS,
    BandwidthTrace,
    constant_trace,
    trace_1,
    trace_2,
)


class TestBandwidthTrace:
    def test_capacity_lookup(self):
        trace = BandwidthTrace(np.array([10.0, 20.0, 30.0]), interval_s=1.0)
        assert trace.capacity_at(0.5) == 10.0
        assert trace.capacity_at(1.5) == 20.0
        assert trace.capacity_at(2.9) == 30.0

    def test_trace_loops(self):
        trace = BandwidthTrace(np.array([10.0, 20.0]), interval_s=1.0)
        assert trace.capacity_at(2.0) == 10.0
        assert trace.capacity_at(3.5) == 20.0

    def test_bps_conversion(self):
        trace = BandwidthTrace(np.array([100.0]))
        assert trace.capacity_bps_at(0.0) == 100e6

    def test_scaled(self):
        trace = BandwidthTrace(np.array([10.0, 20.0]))
        doubled = trace.scaled(2.0)
        np.testing.assert_array_equal(doubled.capacities_mbps, [20.0, 40.0])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([]))
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([1.0]), interval_s=0)
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([1.0])).scaled(0.0)

    def test_zero_rate_intervals_allowed(self):
        # Outage spans are legitimate: capacity pauses, C(t) plateaus.
        trace = BandwidthTrace(np.array([10.0, 0.0, 10.0]), interval_s=1.0)
        assert trace.capacity_at(1.5) == 0.0
        assert trace.cumulative_bits_at(2.0) == trace.cumulative_bits_at(1.0)

    def test_duration(self):
        trace = BandwidthTrace(np.ones(10), interval_s=0.5)
        assert trace.duration_s == 5.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: trace_1(duration_s=60),
        lambda: trace_2(duration_s=60),
        lambda: constant_trace(37.5, 20.0),
        lambda: trace_2(duration_s=60).scaled(0.013),
    ],
    ids=["trace_1", "trace_2", "constant", "scaled"],
)
def test_cached_mean_is_the_stats_mean_bit_for_bit(make):
    trace = make()
    assert trace.mean_mbps == trace.stats().mean
    assert trace.mean_mbps.hex() == float(trace.capacities_mbps.mean()).hex()


class TestPaperTraces:
    def test_trace1_matches_table4(self):
        stats = trace_1(duration_s=600).stats()
        assert stats.mean == pytest.approx(TRACE_1_STATS.mean, rel=0.02)
        assert TRACE_1_STATS.min <= stats.min
        assert stats.max <= TRACE_1_STATS.max
        assert stats.p90 == pytest.approx(TRACE_1_STATS.p90, rel=0.08)
        assert stats.p10 == pytest.approx(TRACE_1_STATS.p10, rel=0.08)

    def test_trace2_matches_table4(self):
        stats = trace_2(duration_s=600).stats()
        assert stats.mean == pytest.approx(TRACE_2_STATS.mean, rel=0.02)
        assert TRACE_2_STATS.min <= stats.min
        assert stats.max <= TRACE_2_STATS.max
        assert stats.p90 == pytest.approx(TRACE_2_STATS.p90, rel=0.08)

    def test_trace2_has_more_relative_variability(self):
        """Mobile trace is burstier than stationary (Fig. A.3)."""
        s1, s2 = trace_1().stats(), trace_2().stats()
        cv1 = np.std(trace_1().capacities_mbps) / s1.mean
        cv2 = np.std(trace_2().capacities_mbps) / s2.mean
        assert cv2 > cv1

    def test_traces_are_deterministic_per_seed(self):
        np.testing.assert_array_equal(
            trace_1(seed=3).capacities_mbps, trace_1(seed=3).capacities_mbps
        )
        assert not np.array_equal(
            trace_1(seed=3).capacities_mbps, trace_1(seed=4).capacities_mbps
        )

    def test_temporal_correlation(self):
        """WiFi throughput is autocorrelated, not white noise."""
        c = trace_1(duration_s=600).capacities_mbps
        lag1 = np.corrcoef(c[:-1], c[1:])[0, 1]
        assert lag1 > 0.5

    def test_constant_trace(self):
        trace = constant_trace(80.0, duration_s=10)
        assert trace.stats().mean == 80.0
        assert trace.stats().max == trace.stats().min == 80.0
