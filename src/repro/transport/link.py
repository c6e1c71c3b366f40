"""Trace-driven bottleneck link (Mahimahi's role in the paper's testbed).

A single bottleneck with:

- time-varying service rate from a :class:`BandwidthTrace`;
- a FIFO queue bounded by maximum queueing delay (drop-tail);
- fixed one-way propagation delay;
- optional random packet loss.

The model is a fluid-service queue evaluated per packet on the trace's
cumulative-capacity integral: each enqueue computes when the bottleneck
finishes serving the packet as ``C^-1(C(start) + bits)``, which is
exact for FIFO service and piecewise-constant capacity (including
zero-rate outage intervals) and O(log intervals) per packet.

:meth:`EmulatedLink.send` is the one admission path: the two-party
channel offers every packet through it, and so does the SFU's
per-receiver :class:`~repro.transport.downlink.DownlinkSet`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.transport.packet import Packet
from repro.transport.traces import BandwidthTrace

__all__ = ["LinkConfig", "EmulatedLink"]

# Drop-tail bound expressed as queueing delay (Mahimahi-style bounded
# buffer): a packet that would wait longer never enters the queue.
MAX_QUEUE_DELAY_S = 0.3


@dataclass(frozen=True)
class LinkConfig:
    """Link parameters.

    Attributes:
        propagation_delay_s: one-way propagation delay.
        loss_rate: i.i.d. random loss probability.
        seed: RNG seed for loss draws.
        receive_buffer_bytes: receiver UDP socket buffer.  Packets that
            arrive while the application hasn't drained the buffer are
            dropped when it overflows -- appendix A.1: "Because 4K
            videos are large, the default Linux UDP socket buffer
            (213 KB) proved insufficient, so we increased it."  None
            disables the model (an amply sized buffer).
        receive_drain_rate_bps: how fast the receiving application
            drains the socket buffer (decode ingest rate).
    """

    propagation_delay_s: float = 0.02
    loss_rate: float = 0.0
    seed: int = 0
    receive_buffer_bytes: int | None = None
    receive_drain_rate_bps: float = 400e6

    def __post_init__(self) -> None:
        if self.propagation_delay_s < 0:
            raise ValueError("propagation_delay_s must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.receive_buffer_bytes is not None and self.receive_buffer_bytes <= 0:
            raise ValueError("receive_buffer_bytes must be positive")
        if self.receive_drain_rate_bps <= 0:
            raise ValueError("receive_drain_rate_bps must be positive")


class EmulatedLink:
    """One-direction bottleneck link driven by a bandwidth trace."""

    def __init__(
        self,
        trace: BandwidthTrace,
        config: LinkConfig | None = None,
        fault_hook: Callable[[Packet], bool] | None = None,
    ) -> None:
        self.trace = trace
        self.config = config or LinkConfig()
        # Injected loss model (outages, burst loss): called per offered
        # packet, returns True to swallow it.  Deterministic hooks keep
        # the link itself deterministic -- the hook never touches the
        # link's own RNG stream.
        self.fault_hook = fault_hook
        self._rng = np.random.default_rng(self.config.seed)
        self._queue_free_at = 0.0  # when the bottleneck finishes its backlog
        # C(_queue_free_at): the same state in cumulative-bits space.
        # A busy queue chains the next packet from these bits instead of
        # round-tripping through C(C^-1(bits)), whose float result can
        # differ in the last ulp: every pinned output (goldens, twin
        # digests) was computed through this chaining, so it stays.
        self._queue_free_cum = 0.0
        self.packets_sent = 0
        self.packets_dropped = 0
        self.fault_drops = 0
        self.bytes_delivered = 0
        # Receive-socket-buffer model (appendix A.1).
        self._socket_fill_bytes = 0.0
        self._socket_last_arrival = 0.0
        self.socket_drops = 0

    def _service_finish_time(self, start: float, size_bytes: int) -> float:
        """Finish time for serving ``size_bytes`` starting at ``start``.

        Inverse lookup on the trace's cumulative-capacity integral;
        zero-rate intervals are plateaus the inverse skips over (the
        old per-interval walk span forever on them).
        """
        target = self.trace.cumulative_bits_at(start) + size_bytes * 8.0
        return self.trace.time_for_cumulative(target)

    def send(self, packet: Packet) -> float | None:
        """Offer a packet to the link at ``packet.send_time_s``.

        Returns the arrival time at the far end, or None if the packet
        was dropped (queue overflow, fault hook, random loss or a full
        receive socket).  Packets must be offered in nondecreasing
        send-time order (FIFO link).
        """
        self.packets_sent += 1
        config = self.config
        now = packet.send_time_s
        busy = self._queue_free_at > now
        start = self._queue_free_at if busy else now
        if start - now > MAX_QUEUE_DELAY_S:
            # Drop-tail: the packet never enters the queue.
            self.packets_dropped += 1
            return None
        start_cum = self._queue_free_cum if busy else self.trace.cumulative_bits_at(now)
        target = start_cum + packet.size_bytes * 8.0
        if self.fault_hook is not None and self.fault_hook(packet):
            # Fault-injected loss (outage, burst): like random loss, the
            # packet occupies the bottleneck and dies downstream.
            self._occupy(target)
            self.packets_dropped += 1
            self.fault_drops += 1
            return None
        if config.loss_rate > 0 and self._rng.random() < config.loss_rate:
            # Random loss still occupies the bottleneck (the packet is
            # transmitted, then lost downstream).
            self._occupy(target)
            self.packets_dropped += 1
            return None
        arrival = self._occupy(target) + config.propagation_delay_s
        if not self._socket_admit(packet.size_bytes, arrival):
            self.packets_dropped += 1
            self.socket_drops += 1
            return None
        self.bytes_delivered += packet.size_bytes
        packet.arrival_time_s = arrival
        return arrival

    def _occupy(self, target_cum_bits: float) -> float:
        """Advance the bottleneck to ``C^-1(target)``; returns the finish time."""
        finish = self.trace.time_for_cumulative(target_cum_bits)
        self._queue_free_at = finish
        self._queue_free_cum = target_cum_bits
        return finish

    def _socket_admit(self, size_bytes: int, arrival: float) -> bool:
        """Receive-socket buffer: drain since the last arrival, then
        accept iff the packet fits (appendix A.1's overflow effect)."""
        if self.config.receive_buffer_bytes is None:
            return True
        elapsed = max(arrival - self._socket_last_arrival, 0.0)
        drained = elapsed * self.config.receive_drain_rate_bps / 8.0
        self._socket_fill_bytes = max(self._socket_fill_bytes - drained, 0.0)
        self._socket_last_arrival = arrival
        if self._socket_fill_bytes + size_bytes > self.config.receive_buffer_bytes:
            return False
        self._socket_fill_bytes += size_bytes
        return True

    @property
    def loss_fraction(self) -> float:
        """Fraction of offered packets dropped so far."""
        if self.packets_sent == 0:
            return 0.0
        return self.packets_dropped / self.packets_sent
