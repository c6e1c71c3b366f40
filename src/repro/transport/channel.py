"""WebRTC-like media channel: packetization + congestion control + recovery.

Ties the transport pieces together the way the paper's stack does
(section 3.3 background, appendix A.1):

- each frame crosses as its serialized bytes: the buffer is cut into
  RTP-like packets carrying slices of it, offered to the emulated
  bottleneck link in send-time order, and the receiver joins the
  slices that arrive back into the buffer it hands on;
- per-packet timing feedback returns over the reverse path and drives
  the GCC bandwidth estimate and a smoothed application-level RTT
  (halved by LiVo to predict the one-way delay, section 3.4);
- lost packets trigger NACK retransmissions of the stored slice (or an
  XOR repair from their FEC group's parity); when retries are exhausted
  the frame is abandoned and a PLI-style keyframe request is raised
  ("we enable several WebRTC features, including negative
  acknowledgments, Picture Loss Indication (PLI)...", appendix A.1).

Everything is event-driven on simulated time: ``process_until(now)``
advances the channel clock and makes completed frames visible.  Every
packet is one heap event (offer, then feedback or NACK), so per-packet
identity -- losses, retransmissions, FEC repair, fault hooks -- needs
no special casing.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.perf.counters import BatchCounters
from repro.transport.fec import parity_packet_for
from repro.transport.gcc import GCCConfig, GoogleCongestionControl
from repro.transport.link import EmulatedLink
from repro.transport.packet import Packet
from repro.transport.rtp import RTP_HEADER_BYTES, FrameAssembler, packetize

__all__ = ["WebRTCConfig", "FrameDelivery", "WebRTCChannel"]

LOSS_DETECTION_GRACE_S = 0.02  # a loss is seen one propagation delay + this late
RTT_SMOOTHING = 0.125  # classic SRTT EWMA gain
LOSS_WINDOW_S = 1.0    # the loss fraction GCC sees covers this much history
REVERSE_DELAY_S = 0.02  # receiver-to-sender feedback path, one way


@dataclass(frozen=True)
class WebRTCConfig:
    """Channel parameters.

    ``fec_group_size`` enables XOR-parity forward error correction:
    every group of that many media packets is followed by one parity
    packet, and single losses per group are rebuilt by XOR instead of
    waiting a NACK round trip (see :mod:`repro.transport.fec`).  None
    disables FEC (the paper's configuration); otherwise it must be at
    least 2 (a group of one is a full-size copy of every packet).
    """

    nack_retries: int = 3
    fec_group_size: int | None = None

    def __post_init__(self) -> None:
        if self.fec_group_size is not None and self.fec_group_size < 2:
            raise ValueError("fec_group_size must be None or at least 2")


@dataclass(frozen=True)
class FrameDelivery:
    """A frame that fully arrived at the receiver: its reassembled bytes."""

    stream_id: int
    frame_sequence: int
    send_time_s: float
    completion_time_s: float
    data: bytes = field(repr=False)


class WebRTCChannel:
    """One-direction media channel over an emulated link."""

    def __init__(
        self,
        link: EmulatedLink,
        config: WebRTCConfig | None = None,
        gcc_config: GCCConfig | None = None,
        num_streams: int = 2,
    ) -> None:
        self.link = link
        self.config = config or WebRTCConfig()
        self.gcc = GoogleCongestionControl(gcc_config)
        self._assemblers = [FrameAssembler() for _ in range(num_streams)]
        self._events: list[tuple[float, int, str, object]] = []
        self._tiebreak = 0
        self._packet_sequence = 0
        self._frame_send_times: dict[tuple[int, int], float] = {}
        self._deliveries: list[FrameDelivery] = []
        self._needs_keyframe = [False] * num_streams
        self._srtt: float | None = None
        # Loss window: one (time, lost) entry per packet outcome plus
        # running totals, so _loss_fraction is O(1) instead of an
        # O(window) recount on every feedback and NACK.
        self._loss_events: deque[tuple[float, int]] = deque()
        self._loss_lost = 0
        self._loss_total = 0
        self.frames_lost: list[tuple[int, int]] = []
        self._abandoned: set[tuple[int, int]] = set()
        # NACK chains still in flight per frame; a released frame's
        # abandon/repair markers stay alive until its chains drain.
        self._pending_nacks: dict[tuple[int, int], int] = {}
        self._released: set[tuple[int, int]] = set()
        self.marker_frames: list[tuple[int, int]] = []
        self.bytes_sent_per_stream = [0] * num_streams
        self._clock = 0.0
        self.batch_counters = BatchCounters("transport_batch")
        # Fragments parity rebuilt, per frame: their NACKs are cancelled.
        self._fec_repaired: dict[tuple[int, int], set[int]] = {}
        self.fec_repairs = 0

    def metrics_into(self, registry) -> None:
        """Fold this channel's counters into a ``repro.obs`` registry.

        Registers the per-packet offer count under its established
        ``cache.transport_batch.*`` names (every offer is a ``miss``:
        nothing is batched) plus per-stream byte totals and
        loss/abandon counts.
        """
        self.batch_counters.metrics_into(registry)
        for stream_id, sent in enumerate(self.bytes_sent_per_stream):
            registry.counter(f"transport.stream{stream_id}.bytes_sent").inc(sent)
        registry.counter("transport.frames_lost").inc(len(self.frames_lost))
        registry.counter("transport.frames_abandoned").inc(len(self._abandoned))
        registry.counter("transport.marker_frames").inc(len(self.marker_frames))
        registry.gauge("transport.target_rate_bps").set(self.target_rate_bps())

    # ------------------------------------------------------------------
    # Sender API
    # ------------------------------------------------------------------

    def send_frame(self, stream_id: int, frame_sequence: int, data: bytes, now: float) -> None:
        """Offer one serialized frame for transmission at time ``now``.

        The packets carry slices of ``data``; the receiver's delivery
        carries the buffer they reassemble to.  A zero-byte frame is
        legitimate -- an aggressively culled view can encode to
        (effectively) nothing -- and is carried as a single header-only
        marker packet so the receiver still observes the frame boundary
        instead of the sender crashing.
        """
        if not data:
            self._send_marker_frame(stream_id, frame_sequence, now)
            return
        packets = packetize(
            stream_id,
            frame_sequence,
            data,
            now,
            self._packet_sequence,
        )
        self._packet_sequence += len(packets)
        self._frame_send_times[(stream_id, frame_sequence)] = now
        self.bytes_sent_per_stream[stream_id] += sum(p.size_bytes for p in packets)
        for packet in packets:
            self._schedule(now, "offer", (packet, self.config.nack_retries))
        if self.config.fec_group_size is not None:
            self._send_fec_parity(stream_id, packets, now)

    def _send_marker_frame(self, stream_id: int, frame_sequence: int, now: float) -> None:
        """Send a header-only marker for an empty frame (recorded)."""
        marker = Packet(
            sequence=self._packet_sequence,
            stream_id=stream_id,
            frame_sequence=frame_sequence,
            fragment=0,
            num_fragments=1,
            size_bytes=RTP_HEADER_BYTES,
            send_time_s=now,
        )
        self._packet_sequence += 1
        self._frame_send_times[(stream_id, frame_sequence)] = now
        self.bytes_sent_per_stream[stream_id] += marker.size_bytes
        self.marker_frames.append((stream_id, frame_sequence))
        self._schedule(now, "offer", (marker, self.config.nack_retries))

    def _send_fec_parity(self, stream_id: int, packets: list[Packet], now: float) -> None:
        """Group a frame's packets and append XOR parity packets."""
        group_size = self.config.fec_group_size
        assert group_size is not None
        for start in range(0, len(packets), group_size):
            parity = parity_packet_for(packets[start : start + group_size], self._packet_sequence)
            self._packet_sequence += 1
            self.bytes_sent_per_stream[stream_id] += parity.size_bytes
            # Parity is best-effort: no NACK retries for it.
            self._schedule(now, "offer", (parity, 0))

    def target_rate_bps(self) -> float:
        """Current GCC bandwidth estimate (the encoder's rate input)."""
        return self.gcc.target_rate_bps()

    @property
    def rtt_s(self) -> float:
        """Smoothed application-level RTT estimate."""
        if self._srtt is None:
            return 2.0 * (self.link.config.propagation_delay_s + REVERSE_DELAY_S)
        return self._srtt

    @property
    def one_way_delay_estimate_s(self) -> float:
        """LiVo's Delta-t: half the smoothed RTT (section 3.4)."""
        return self.rtt_s / 2.0

    def needs_keyframe(self, stream_id: int) -> bool:
        """True when a PLI is pending for this stream (consumed on read)."""
        pending = self._needs_keyframe[stream_id]
        self._needs_keyframe[stream_id] = False
        return pending

    # ------------------------------------------------------------------
    # Receiver API
    # ------------------------------------------------------------------

    def frame_abandoned(self, stream_id: int, frame_sequence: int) -> bool:
        """Whether a frame's retransmissions were exhausted (PLI path)."""
        return (stream_id, frame_sequence) in self._abandoned

    def poll_deliveries(self, now: float) -> list[FrameDelivery]:
        """Advance the clock and return frames completed by ``now``."""
        self.process_until(now)
        ready = [d for d in self._deliveries if d.completion_time_s <= now]
        self._deliveries = [d for d in self._deliveries if d.completion_time_s > now]
        return ready

    def release_frame(self, frame_sequence: int) -> None:
        """Drop retained per-frame bookkeeping once the application has
        resolved the frame (rendered, frozen over, or given up).

        Long sessions call this as they prune their own frame state so
        channel-side maps stay bounded.  Markers a still-in-flight NACK
        chain consults (the abandoned set, FEC-repair cancellations)
        are kept alive until the chain drains, so behaviour is
        unchanged -- only memory is reclaimed.
        """
        for stream_id in range(len(self._assemblers)):
            key = (stream_id, frame_sequence)
            self._frame_send_times.pop(key, None)
            self._assemblers[stream_id].release_frame(frame_sequence)
            if self._pending_nacks.get(key):
                self._released.add(key)
            else:
                self._release_key(key)

    def _release_key(self, key: tuple[int, int]) -> None:
        self._abandoned.discard(key)
        self._fec_repaired.pop(key, None)

    # ------------------------------------------------------------------
    # Event machinery
    # ------------------------------------------------------------------

    def _schedule(self, time_s: float, kind: str, payload: object) -> None:
        heapq.heappush(self._events, (time_s, self._tiebreak, kind, payload))
        self._tiebreak += 1

    def _schedule_nack(self, time_s: float, packet: Packet, retries_left: int) -> None:
        key = (packet.stream_id, packet.frame_sequence)
        self._pending_nacks[key] = self._pending_nacks.get(key, 0) + 1
        self._schedule(time_s, "nack", (packet, retries_left))

    def process_until(self, now: float) -> None:
        """Run all channel events with timestamps up to ``now``."""
        self._clock = max(self._clock, now)
        while self._events and self._events[0][0] <= now:
            time_s, _, kind, payload = heapq.heappop(self._events)
            if kind == "offer":
                self._handle_offer(time_s, *payload)  # type: ignore[misc]
            elif kind == "feedback":
                self._handle_feedback(time_s, payload)  # type: ignore[arg-type]
            elif kind == "nack":
                self._handle_nack(time_s, *payload)  # type: ignore[misc]

    def _handle_offer(self, time_s: float, packet: Packet, retries_left: int) -> None:
        self.batch_counters.scalar(1)
        packet.send_time_s = time_s
        is_parity = packet.fragment < 0
        arrival = self.link.send(packet)
        if arrival is None:
            self._record_loss_event(time_s, delivered=False)
            if is_parity:
                return  # parity is best-effort; never NACKed
            detection = time_s + self.link.config.propagation_delay_s + LOSS_DETECTION_GRACE_S
            nack_arrival = detection + REVERSE_DELAY_S
            self._schedule_nack(nack_arrival, packet, retries_left)
            return
        if is_parity:
            self._fec_repair(packet, arrival)
        else:
            self._deliver_media(packet, arrival)
        self._schedule(arrival + REVERSE_DELAY_S, "feedback", packet)

    def _fec_repair(self, parity: Packet, arrival: float) -> None:
        """Rebuild the parity group's one lost member, if exactly one is.

        A frame's parities are offered right after all its media, so
        the assembler already holds every member that made it.
        """
        assert self.config.fec_group_size is not None
        repaired = self._assemblers[parity.stream_id].repair(parity, self.config.fec_group_size)
        if repaired is None:
            return
        self.fec_repairs += 1
        key = (parity.stream_id, parity.frame_sequence)
        self._fec_repaired.setdefault(key, set()).add(repaired.fragment)
        self._deliver_media(repaired, arrival)

    def _deliver_media(self, packet: Packet, arrival: float) -> None:
        data = self._assemblers[packet.stream_id].on_packet(packet)
        if data is None:
            return
        key = (packet.stream_id, packet.frame_sequence)
        self._deliveries.append(
            FrameDelivery(
                stream_id=packet.stream_id,
                frame_sequence=packet.frame_sequence,
                send_time_s=self._frame_send_times.pop(key, packet.send_time_s),
                completion_time_s=arrival,
                data=data,
            )
        )

    def _handle_feedback(self, time_s: float, packet: Packet) -> None:
        assert packet.arrival_time_s is not None
        self.gcc.on_packet_feedback(packet.send_time_s, packet.arrival_time_s, packet.size_bytes)
        self._record_loss_event(time_s, delivered=True)
        self.gcc.on_loss_report(self._loss_fraction(time_s))
        sample = time_s - packet.send_time_s
        if self._srtt is None:
            self._srtt = sample
        else:
            self._srtt += RTT_SMOOTHING * (sample - self._srtt)

    def _handle_nack(self, time_s: float, packet: Packet, retries_left: int) -> None:
        key = (packet.stream_id, packet.frame_sequence)
        pending = self._pending_nacks.get(key, 1) - 1
        if pending > 0:
            self._pending_nacks[key] = pending
        else:
            self._pending_nacks.pop(key, None)
        self._nack_decision(time_s, packet, retries_left, key)
        if key in self._released and not self._pending_nacks.get(key):
            # The frame was released while chains were in flight and the
            # last chain just drained (the decision above may have
            # re-armed it via a retransmission) -- reclaim its markers.
            self._released.discard(key)
            self._release_key(key)

    def _nack_decision(
        self, time_s: float, packet: Packet, retries_left: int, key: tuple[int, int]
    ) -> None:
        if packet.fragment in self._fec_repaired.get(key, ()):
            return  # FEC already repaired this loss; no retransmission
        if key in self._abandoned:
            # The frame was already given up on (PLI raised); spending
            # link capacity retransmitting its other fragments is waste.
            return
        self.gcc.on_loss_report(self._loss_fraction(time_s))
        if retries_left <= 0:
            self.frames_lost.append(key)
            self._abandoned.add(key)
            self._frame_send_times.pop(key, None)
            self._assemblers[packet.stream_id].drop_frame(packet.frame_sequence)
            self._needs_keyframe[packet.stream_id] = True
            return
        retransmit = Packet(
            sequence=self._packet_sequence,
            stream_id=packet.stream_id,
            frame_sequence=packet.frame_sequence,
            fragment=packet.fragment,
            num_fragments=packet.num_fragments,
            size_bytes=packet.size_bytes,
            send_time_s=time_s,
            payload=packet.payload,
        )
        self._packet_sequence += 1
        self._schedule(time_s, "offer", (retransmit, retries_left - 1))

    def _record_loss_event(self, time_s: float, delivered: bool) -> None:
        lost = 0 if delivered else 1
        self._loss_events.append((time_s, lost))
        self._loss_lost += lost
        self._loss_total += 1
        cutoff = time_s - LOSS_WINDOW_S
        events = self._loss_events
        while events and events[0][0] < cutoff:
            self._loss_lost -= events.popleft()[1]
            self._loss_total -= 1

    def _loss_fraction(self, now: float) -> float:
        if not self._loss_total:
            return 0.0
        return self._loss_lost / self._loss_total
