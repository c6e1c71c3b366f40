"""Per-receiver state: the book an SFU node keeps.

Each receiver in a conference owns a :class:`ReceiverState`: its
frustum predictor (fed by delayed pose reports), its congestion
controller (fed by downlink feedback when the node emulates downlinks),
its degradation rung, and forwarding counters.  The
:class:`ReceiverBook` is the insertion-ordered registry of those
states -- insertion order is the iteration order everywhere, which is
what makes conference runs byte-deterministic under churn.

``repro.sfu.node.SFUNode`` owns the book (and
``repro.sfu.conference.ConferenceDriver`` reaches it through the node),
so "who is in the conference and what do we know about them" has
exactly one implementation, with or without downlinks.  Membership
errors -- adding a name already present, removing one that is not --
raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.prediction.pose import Pose
from repro.prediction.predictor import FrustumPredictor, ViewingDevice
from repro.transport.downlink import DownlinkSend, DownlinkSet
from repro.transport.gcc import GoogleCongestionControl

__all__ = ["ReceiverState", "ReceiverBook"]


@dataclass
class ReceiverState:
    """Everything the fan-out path knows about one receiver."""

    name: str
    predictor: FrustumPredictor
    # Degradation-ladder rung the node last chose for this receiver
    # (0 = full tier); see ``repro.sfu.node.TIER_SCALES``.
    rung: int = 0
    frames_forwarded: int = 0
    bytes_forwarded: int = 0
    last_kept_fraction: float = 1.0
    # Per-downlink congestion estimate; None until the node provisions
    # an emulated downlink for this receiver.
    gcc: GoogleCongestionControl | None = None
    extras: dict = field(default_factory=dict)

    @property
    def ready(self) -> bool:
        """Whether the predictor has seen at least one pose."""
        return self.predictor.ready

    def estimated_rate_bps(self, default: float) -> float:
        """The receiver's bandwidth estimate, or ``default`` if unfed."""
        if self.gcc is None:
            return default
        return min(self.gcc.target_rate_bps(), default)

    def offer_downlink(self, downlinks: DownlinkSet, now: float, size_bytes: int) -> DownlinkSend:
        """Send one forwarded burst down this receiver's link and feed
        the outcome to its GCC the way the two-party channel does: each
        delivered packet's timing, then the burst's loss fraction."""
        send = downlinks.send(self.name, now, size_bytes)
        if self.gcc is not None and send.packets:
            for arrival, size in zip(send.arrival_times_s, send.delivered_sizes):
                self.gcc.on_packet_feedback(now, arrival, size)
            self.gcc.on_loss_report((send.packets - send.delivered_packets) / send.packets)
        return send


class ReceiverBook:
    """Insertion-ordered registry of conference receivers."""

    def __init__(self, device: ViewingDevice) -> None:
        self.device = device
        self._states: dict[str, ReceiverState] = {}
        self.total_joins = 0
        self.total_leaves = 0

    def __contains__(self, name: str) -> bool:
        return name in self._states

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        return iter(self._states.values())

    @property
    def names(self) -> list[str]:
        """Receivers currently present, in join order."""
        return list(self._states)

    def add(self, name: str) -> ReceiverState:
        """Register a joining receiver with a cold predictor."""
        if name in self._states:
            raise ValueError(f"receiver {name!r} already present")
        state = ReceiverState(
            name=name,
            predictor=FrustumPredictor(self.device),
        )
        self.total_joins += 1
        self._states[name] = state
        return state

    def remove(self, name: str) -> ReceiverState:
        """Deregister a leaving receiver; returns its final state."""
        if name not in self._states:
            raise ValueError(f"receiver {name!r} not present")
        self.total_leaves += 1
        return self._states.pop(name)

    def get(self, name: str) -> ReceiverState:
        """The receiver's state (KeyError if absent)."""
        return self._states[name]

    def observe_pose(self, name: str, pose: Pose, timestamp_s: float) -> None:
        """Fold one receiver's delayed pose report into its predictor."""
        self._states[name].predictor.observe(pose, timestamp_s)

    def ready_states(self) -> list[ReceiverState]:
        """Receivers whose predictors are warm, in join order."""
        return [state for state in self._states.values() if state.ready]
