"""Per-receiver downlink links for SFU fan-out.

An SFU node owns one :class:`~repro.transport.link.EmulatedLink` per
receiver: each downlink is its own bottleneck (the receiver's access
network), with its own trace, queue state, and loss RNG, all on the
cumulative-capacity model of DESIGN.md §9.

:class:`DownlinkSet` is the registry the SFU drives: links are created
on receiver join (seeded deterministically from the base seed and the
join ordinal, so a conference replays byte-identically regardless of
wall clock), removed on leave, and each forward is MTU-packetized and
offered one packet at a time through :meth:`EmulatedLink.send`, the
admission the two-party channel uses.  A forward is about three packets
in the fleet, where a vectorized burst admission cost more than this
loop (DESIGN.md §9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.transport.link import EmulatedLink, LinkConfig
from repro.transport.packet import MTU_BYTES, Packet
from repro.transport.traces import BandwidthTrace

__all__ = ["DownlinkSet", "DownlinkSend"]


@dataclass(frozen=True)
class DownlinkSend:
    """Outcome of one forwarded burst on one receiver's downlink."""

    packets: int
    delivered_packets: int
    delivery_time_s: float | None  # last delivered packet's arrival (None: all lost)
    arrival_times_s: tuple[float, ...]  # delivered arrivals, FIFO order
    delivered_sizes: tuple[int, ...] = ()  # per-delivered-packet bytes (GCC feedback)


class DownlinkSet:
    """The SFU's per-receiver emulated downlinks.

    ``default_trace`` serves receivers that join without their own
    trace (a homogeneous conference); heterogeneous conferences pass a
    per-receiver :class:`BandwidthTrace` at :meth:`add` time.
    """

    def __init__(
        self,
        default_trace: BandwidthTrace,
        config: LinkConfig | None = None,
    ) -> None:
        self.default_trace = default_trace
        self.config = config or LinkConfig()
        self._links: dict[str, EmulatedLink] = {}
        self._join_ordinal = 0
        self.bursts_sent = 0
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_offered = 0

    def __contains__(self, name: str) -> bool:
        return name in self._links

    def __len__(self) -> int:
        return len(self._links)

    @property
    def names(self) -> list[str]:
        """Receivers with an active downlink, in join order."""
        return list(self._links)

    def add(self, name: str, trace: BandwidthTrace | None = None) -> EmulatedLink:
        """Provision a downlink for a joining receiver."""
        if name in self._links:
            raise ValueError(f"downlink for {name!r} already exists")
        # Each downlink draws loss from its own stream; deriving the
        # seed from the join ordinal (not the name hash) keeps replays
        # independent of Python's string-hash randomization.
        seeded = replace(self.config, seed=self.config.seed + 7919 * self._join_ordinal)
        self._join_ordinal += 1
        link = EmulatedLink(trace or self.default_trace, seeded)
        self._links[name] = link
        return link

    def remove(self, name: str) -> None:
        """Tear down a leaving receiver's downlink."""
        if name not in self._links:
            raise ValueError(f"no downlink for {name!r}")
        del self._links[name]

    def link(self, name: str) -> EmulatedLink:
        """The receiver's live link (KeyError if absent)."""
        return self._links[name]

    def send(self, name: str, now: float, size_bytes: int) -> DownlinkSend:
        """Offer one forwarded frame as an MTU-packetized burst."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        link = self._links[name]
        if size_bytes == 0:
            return DownlinkSend(0, 0, now + link.config.propagation_delay_s, ())
        size_bytes = int(size_bytes)
        count = max(1, math.ceil(size_bytes / MTU_BYTES))
        arrivals: list[float] = []
        sizes: list[int] = []
        for fragment in range(count):
            size = MTU_BYTES if fragment < count - 1 else size_bytes - MTU_BYTES * (count - 1)
            # Nothing downstream of the link reads a downlink packet's
            # identity; the sequence is the link's own offer count.
            arrival = link.send(Packet(link.packets_sent, 0, 0, fragment, count, size, now))
            if arrival is not None:
                arrivals.append(arrival)
                sizes.append(size)
        self.bursts_sent += 1
        self.packets_sent += count
        self.packets_dropped += count - len(arrivals)
        self.bytes_offered += size_bytes
        return DownlinkSend(
            packets=count,
            delivered_packets=len(arrivals),
            delivery_time_s=arrivals[-1] if arrivals else None,
            arrival_times_s=tuple(arrivals),
            delivered_sizes=tuple(sizes),
        )

    def metrics_into(self, registry) -> None:
        """Export aggregate downlink counters as ``sfu.downlink.*``."""
        registry.counter("sfu.downlink.bursts").inc(self.bursts_sent)
        registry.counter("sfu.downlink.packets_sent").inc(self.packets_sent)
        registry.counter("sfu.downlink.packets_dropped").inc(self.packets_dropped)
        registry.counter("sfu.downlink.bytes_offered").inc(self.bytes_offered)
        registry.gauge("sfu.downlink.active").set(len(self._links))
