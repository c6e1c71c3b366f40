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

:meth:`EmulatedLink.send_batch` offers a whole burst of packets sharing
one send time as structure-of-arrays: finish times come from one
``cumsum`` + vectorized inverse lookup, loss draws come from the same
RNG stream in the same order as repeated :meth:`EmulatedLink.send`
calls, and the returned arrivals/statuses are bit-identical to what
those calls return (see DESIGN.md §9 for the parity contract).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.transport.packet import Packet
from repro.transport.traces import BandwidthTrace

__all__ = [
    "LinkConfig",
    "EmulatedLink",
    "STATUS_DELIVERED",
    "STATUS_QUEUE_DROP",
    "STATUS_FAULT_DROP",
    "STATUS_LOSS_DROP",
    "STATUS_SOCKET_DROP",
]

# Per-packet outcome codes returned by :meth:`EmulatedLink.send_batch`.
STATUS_DELIVERED = 0
STATUS_QUEUE_DROP = 1  # drop-tail at the bottleneck queue (never transmitted)
STATUS_FAULT_DROP = 2  # swallowed by the fault hook (transmitted, lost downstream)
STATUS_LOSS_DROP = 3  # random loss (transmitted, lost downstream)
STATUS_SOCKET_DROP = 4  # receive-socket buffer overflow at the far end


@dataclass(frozen=True)
class LinkConfig:
    """Link parameters.

    Attributes:
        propagation_delay_s: one-way propagation delay.
        max_queue_delay_s: drop-tail bound expressed as queueing delay
            (Mahimahi-style bounded buffer).
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
    max_queue_delay_s: float = 0.3
    loss_rate: float = 0.0
    seed: int = 0
    receive_buffer_bytes: int | None = None
    receive_drain_rate_bps: float = 400e6

    def __post_init__(self) -> None:
        if self.propagation_delay_s < 0:
            raise ValueError("propagation_delay_s must be non-negative")
        if self.max_queue_delay_s <= 0:
            raise ValueError("max_queue_delay_s must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
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
        # Chaining service through cumulative bits (instead of round-
        # tripping through C^-1 then C) is what lets the batched path's
        # cumsum reproduce the scalar path bit-for-bit.
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
        was dropped (queue overflow or random loss).  Packets must be
        offered in nondecreasing send-time order (FIFO link).
        """
        self.packets_sent += 1
        arrival, _status = self._admit(packet.send_time_s, packet.size_bytes, packet)
        if arrival is not None:
            packet.arrival_time_s = arrival
        return arrival

    def _admit(
        self, now: float, size_bytes: int, packet: Packet | None
    ) -> tuple[float | None, int]:
        """Scalar admission: queue check, fault hook, loss draw, serve.

        Shared by :meth:`send` and :meth:`send_batch`'s rare fallback;
        updates every counter except ``packets_sent`` (the caller's).
        """
        config = self.config
        busy = self._queue_free_at > now
        start = self._queue_free_at if busy else now
        if start - now > config.max_queue_delay_s:
            self.packets_dropped += 1
            return None, STATUS_QUEUE_DROP
        start_cum = self._queue_free_cum if busy else self.trace.cumulative_bits_at(now)
        target = start_cum + size_bytes * 8.0
        if self.fault_hook is not None and packet is not None and self.fault_hook(packet):
            # Fault-injected loss (outage, burst): like random loss, the
            # packet occupies the bottleneck and dies downstream.
            self._occupy(target)
            self.packets_dropped += 1
            self.fault_drops += 1
            return None, STATUS_FAULT_DROP
        if config.loss_rate > 0 and self._rng.random() < config.loss_rate:
            # Random loss still occupies the bottleneck (the packet is
            # transmitted, then lost downstream).
            self._occupy(target)
            self.packets_dropped += 1
            return None, STATUS_LOSS_DROP
        finish = self._occupy(target)
        arrival = finish + config.propagation_delay_s
        if not self._socket_admit(size_bytes, arrival):
            self.packets_dropped += 1
            self.socket_drops += 1
            return None, STATUS_SOCKET_DROP
        self.bytes_delivered += size_bytes
        return arrival, STATUS_DELIVERED

    def _occupy(self, target_cum_bits: float) -> float:
        """Advance the bottleneck to ``C^-1(target)``; returns the finish time."""
        finish = self.trace.time_for_cumulative(target_cum_bits)
        self._queue_free_at = finish
        self._queue_free_cum = target_cum_bits
        return finish

    def send_batch(
        self,
        send_time: float,
        sizes_bytes: np.ndarray | Sequence[int],
        packets: Sequence[Packet] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Offer a burst of packets sharing ``send_time``, FIFO order.

        Returns ``(arrivals, status)``: arrivals are NaN except where
        ``status == STATUS_DELIVERED``, and both are bit-identical to
        offering the same packets one by one through :meth:`send`.
        ``packets`` must be provided when a ``fault_hook`` is installed
        (the hook's contract is per-packet and possibly stateful, so it
        is still called once per transmitted packet, in order).
        """
        sizes = np.asarray(sizes_bytes, dtype=np.int64)
        n = int(sizes.shape[0])
        arrivals = np.full(n, np.nan)
        status = np.empty(n, dtype=np.int8)
        if n == 0:
            return arrivals, status
        if self.fault_hook is not None and packets is None:
            raise ValueError("send_batch needs materialized packets when a fault_hook is set")
        self.packets_sent += n
        config = self.config
        now = send_time
        busy = self._queue_free_at > now
        start0 = self._queue_free_at if busy else now
        if start0 - now > config.max_queue_delay_s:
            # The whole burst arrives behind an over-limit backlog.
            status[:] = STATUS_QUEUE_DROP
            self.packets_dropped += n
            return arrivals, status
        start0_cum = self._queue_free_cum if busy else self.trace.cumulative_bits_at(now)
        # Chained service targets: cumsum accumulates left-to-right, so
        # target[i] == target[i-1] + bits[i] exactly as scalar chaining.
        chain = sizes * 8.0
        chain[0] += start0_cum
        targets = np.cumsum(chain)
        finishes = self.trace.times_for_cumulative(targets)
        if n > 1 and not np.all(finishes[:-1] > now):
            # Pathological float edge: a chained finish landed at/behind
            # the send time, so later packets would re-read C(now)
            # instead of chaining.  Replay scalar admission per packet.
            return self._send_batch_scalar(now, sizes, packets, arrivals, status)
        # Queue-delay drop-tail: packet i starts at finishes[i-1] (or
        # start0), and queue delay within a same-send-time burst is
        # nondecreasing, so drops are a suffix.  Dropped-tail packets
        # never transmit: no fault hook call, no RNG draw.
        starts = np.empty(n)
        starts[0] = start0
        starts[1:] = finishes[:-1]
        over = (starts - now) > config.max_queue_delay_s
        k = int(np.argmax(over)) if over.any() else n
        if k < n:
            status[k:] = STATUS_QUEUE_DROP
            self.packets_dropped += n - k
        if k == 0:
            return arrivals, status
        status[:k] = STATUS_DELIVERED
        # Fault hook: per transmitted packet, in offer order (the hook
        # may be stateful, e.g. Gilbert-Elliott burst loss).
        fault = np.zeros(k, dtype=bool)
        if self.fault_hook is not None:
            hook = self.fault_hook
            for i in range(k):
                if hook(packets[i]):
                    fault[i] = True
            num_faults = int(fault.sum())
            if num_faults:
                status[:k][fault] = STATUS_FAULT_DROP
                self.packets_dropped += num_faults
                self.fault_drops += num_faults
        # Random loss: one block draw from the same stream, covering
        # exactly the packets the scalar path would have drawn for.
        eligible = ~fault
        if config.loss_rate > 0:
            m = int(eligible.sum())
            if m:
                draws = self._rng.random(m)
                lost = np.zeros(k, dtype=bool)
                lost[eligible] = draws < config.loss_rate
                num_lost = int(lost.sum())
                if num_lost:
                    status[:k][lost] = STATUS_LOSS_DROP
                    self.packets_dropped += num_lost
                eligible &= ~lost
        # Every transmitted packet (delivered or lost downstream)
        # occupies the bottleneck; the last one leaves the queue state.
        self._queue_free_at = float(finishes[k - 1])
        self._queue_free_cum = float(targets[k - 1])
        delivered_arrivals = finishes[:k] + config.propagation_delay_s
        if config.receive_buffer_bytes is not None:
            for i in np.flatnonzero(eligible):
                if not self._socket_admit(int(sizes[i]), float(delivered_arrivals[i])):
                    status[i] = STATUS_SOCKET_DROP
                    self.packets_dropped += 1
                    self.socket_drops += 1
                    eligible[i] = False
        arrivals[:k][eligible] = delivered_arrivals[eligible]
        self.bytes_delivered += int(sizes[:k][eligible].sum())
        return arrivals, status

    def _send_batch_scalar(
        self,
        now: float,
        sizes: np.ndarray,
        packets: Sequence[Packet] | None,
        arrivals: np.ndarray,
        status: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-packet fallback with send_batch's return convention."""
        for i in range(int(sizes.shape[0])):
            packet = packets[i] if packets is not None else None
            arrival, code = self._admit(now, int(sizes[i]), packet)
            status[i] = code
            if arrival is not None:
                arrivals[i] = arrival
        return arrivals, status

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

    def queue_delay_at(self, t: float) -> float:
        """Current queueing delay a new packet would see at time ``t``."""
        return max(0.0, self._queue_free_at - t)

    @property
    def loss_fraction(self) -> float:
        """Fraction of offered packets dropped so far."""
        if self.packets_sent == 0:
            return 0.0
        return self.packets_dropped / self.packets_sent
