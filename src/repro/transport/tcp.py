"""Reliable in-order byte stream (the MeshReduce baseline's transport).

MeshReduce "transmits over 2 TCP socket connections" (paper section
4.1).  For the metrics the evaluation needs -- when does each frame's
last byte arrive, and what throughput was achieved -- a fluid model of a
saturating reliable stream is sufficient: the bottleneck serves the
backlog at the trace capacity, losses surface as extra serving time
rather than drops, and frames are delivered strictly in order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transport.traces import BandwidthTrace

__all__ = ["ReliableByteStream", "StreamDelivery"]


@dataclass(frozen=True)
class StreamDelivery:
    """Delivery record for one application message (frame)."""

    message_id: int
    size_bytes: int
    send_time_s: float
    delivery_time_s: float


# Share of the bottleneck's capacity the stream's payload gets: TCP
# dynamics (slow start, loss recovery, header overhead) take the rest.
EFFICIENCY = 0.9


class ReliableByteStream:
    """Fluid TCP-like stream over a trace-driven bottleneck."""

    def __init__(self, trace: BandwidthTrace, propagation_delay_s: float = 0.02) -> None:
        self.trace = trace
        self.propagation_delay_s = float(propagation_delay_s)
        self._backlog_clear_at = 0.0
        self.bytes_sent = 0
        self.deliveries: list[StreamDelivery] = []

    def _service_finish_time(self, start: float, size_bytes: int) -> float:
        # Scaling capacity by EFFICIENCY is the same as inflating the
        # payload by 1/EFFICIENCY, which lets the shared
        # cumulative-capacity inverse (O(log intervals), zero-rate safe)
        # replace the old per-interval walk here too.
        target = self.trace.cumulative_bits_at(start) + size_bytes * 8.0 / EFFICIENCY
        return self.trace.time_for_cumulative(target)

    def send(self, message_id: int, size_bytes: int, now: float) -> StreamDelivery:
        """Append a message at time ``now``; returns its delivery record."""
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        start = max(now, self._backlog_clear_at)
        finish = self._service_finish_time(start, size_bytes)
        self._backlog_clear_at = finish
        self.bytes_sent += size_bytes
        delivery = StreamDelivery(
            message_id=message_id,
            size_bytes=size_bytes,
            send_time_s=now,
            delivery_time_s=finish + self.propagation_delay_s,
        )
        self.deliveries.append(delivery)
        return delivery

    def backlog_delay_at(self, now: float) -> float:
        """How far behind real time the stream currently is."""
        return max(0.0, self._backlog_clear_at - now)
