"""Google Congestion Control (GCC), simplified to its published structure.

Carlucci et al. (MMSys'16) describe GCC as two coupled controllers:

- a **delay-based** controller estimating the one-way delay *gradient*
  between consecutive *packet groups* (frames / send bursts).  Measuring
  between groups rather than packets filters out the self-inflicted
  intra-burst queueing of a frame's own packets.  A threshold on the
  smoothed gradient classifies the network as underused / normal /
  overused, driving an Increase / Hold / Decrease state machine whose
  decrease target is a fraction of the measured receive rate;
- a **loss-based** controller: cut on >10 percent loss, grow on
  <2 percent.  It acts as a cap; with no loss it stays out of the way.

The sender's target rate is the minimum of the two.

Delay feedback arrives one delivered packet at a time
(:meth:`on_packet_feedback`), followed by a loss report
(:meth:`on_loss_report`): the two-party ``WebRTCChannel`` reports on
each feedback and NACK event, the SFU once per forwarded burst
(``repro.sfu.node.SFUNode.offer_downlink``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["GoogleCongestionControl", "GCCConfig"]

# GCC tuning constants (values follow the published defaults).
INCREASE_FACTOR = 1.05          # multiplicative increase per group
DECREASE_FACTOR = 0.85          # beta in the paper
GRADIENT_THRESHOLD_S = 0.002    # overuse threshold on group delay gradient
GRADIENT_SMOOTHING = 0.5        # EMA on the raw gradient
LOSS_DECREASE_THRESHOLD = 0.10
LOSS_INCREASE_THRESHOLD = 0.02
RECEIVE_WINDOW_S = 1.0


@dataclass(frozen=True)
class GCCConfig:
    """The rate range a controller works in; callers size it to the link."""

    initial_rate_bps: float = 10e6
    min_rate_bps: float = 1e6
    max_rate_bps: float = 500e6


@dataclass
class _Group:
    send_time_s: float
    last_arrival_s: float


class GoogleCongestionControl:
    """Delay-gradient + loss congestion controller."""

    def __init__(self, config: GCCConfig | None = None) -> None:
        self.config = config or GCCConfig()
        self._delay_rate = self.config.initial_rate_bps
        # The loss controller is a cap: it starts wide open and only
        # clamps down when losses are reported.
        self._loss_rate_bps = self.config.max_rate_bps
        self._smoothed_gradient = 0.0
        self._state = "increase"
        self._previous_group: _Group | None = None
        self._current_group: _Group | None = None
        # The receive window: arrival times and sizes of the last
        # RECEIVE_WINDOW_S of packets, one flat deque each (no tuple per
        # packet), plus their running byte total, so the receive-rate
        # estimate is O(1) instead of an O(window) re-sum per group.
        self._recent_arrivals: deque[float] = deque()
        self._recent_sizes: deque[int] = deque()
        self._recent_bytes = 0

    @property
    def state(self) -> str:
        """Current delay-controller state: increase / hold / decrease."""
        return self._state

    def on_packet_feedback(self, send_time_s: float, arrival_time_s: float, size_bytes: int) -> None:
        """Fold one delivered packet's timing into the delay controller.

        Packets sharing a send time form one group (a frame's burst).
        """
        arrivals, sizes = self._recent_arrivals, self._recent_sizes
        arrivals.append(arrival_time_s)
        sizes.append(size_bytes)
        self._recent_bytes += size_bytes
        cutoff = arrival_time_s - RECEIVE_WINDOW_S
        while arrivals and arrivals[0] < cutoff:
            arrivals.popleft()
            self._recent_bytes -= sizes.popleft()

        if self._current_group is None:
            self._current_group = _Group(send_time_s, arrival_time_s)
            return
        if send_time_s <= self._current_group.send_time_s + 1e-9:
            # Same burst: extend its last-arrival time.
            self._current_group.last_arrival_s = max(
                self._current_group.last_arrival_s, arrival_time_s
            )
            return

        # New group begins: the previous group is now complete.
        if self._previous_group is not None:
            completed = self._current_group
            inter_departure = completed.send_time_s - self._previous_group.send_time_s
            inter_arrival = completed.last_arrival_s - self._previous_group.last_arrival_s
            self._update_gradient(inter_arrival - inter_departure, completed.last_arrival_s)
        self._previous_group = self._current_group
        self._current_group = _Group(send_time_s, arrival_time_s)

    def _update_gradient(self, gradient_sample: float, now: float) -> None:
        self._smoothed_gradient += GRADIENT_SMOOTHING * (
            gradient_sample - self._smoothed_gradient
        )
        threshold = GRADIENT_THRESHOLD_S
        if self._smoothed_gradient > threshold:
            self._state = "decrease"
            receive_rate = self._receive_rate_bps(now)
            if receive_rate > 0:
                self._delay_rate = max(
                    self.config.min_rate_bps,
                    DECREASE_FACTOR * receive_rate,
                )
        elif self._smoothed_gradient < -threshold:
            self._state = "hold"
        else:
            self._state = "increase"
            self._delay_rate = min(
                self.config.max_rate_bps,
                self._delay_rate * INCREASE_FACTOR,
            )

    def _receive_rate_bps(self, now: float) -> float:
        if not self._recent_arrivals:
            return 0.0
        window_start = self._recent_arrivals[0]
        window = max(now - window_start, 0.05)
        return self._recent_bytes * 8.0 / window

    def on_loss_report(self, loss_fraction: float) -> None:
        """Fold a periodic loss report into the loss-based controller."""
        if not 0.0 <= loss_fraction <= 1.0:
            raise ValueError("loss_fraction must be in [0, 1]")
        if loss_fraction > LOSS_DECREASE_THRESHOLD:
            # Cut from the current effective target, not from the cap's
            # idle value, so heavy loss bites immediately.
            base = min(self._loss_rate_bps, self._delay_rate)
            self._loss_rate_bps = max(
                base * (1.0 - 0.5 * loss_fraction),
                self.config.min_rate_bps,
            )
        elif loss_fraction < LOSS_INCREASE_THRESHOLD:
            self._loss_rate_bps = min(
                self._loss_rate_bps * INCREASE_FACTOR,
                self.config.max_rate_bps,
            )

    def target_rate_bps(self) -> float:
        """The sender's pacing/encoding target: min of the two controllers."""
        return max(self.config.min_rate_bps, min(self._delay_rate, self._loss_rate_bps))
