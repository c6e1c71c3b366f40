"""Run a :class:`~repro.scenario.spec.ScenarioSpec` to a SessionReport.

Two execution paths:

- ``kind="livo"`` hands the spec straight to
  :class:`repro.core.session.LiVoSession` -- the full interleaved
  replay with fault injection, the watchdog ladder, and the obs
  timeline.
- ``kind="multiway"`` opens the spec's room
  (:class:`repro.sfu.room.Room`) and ticks one conference from it
  (``sfu``: with downlinks; ``shared``: without) or the
  :class:`~repro.sfu.conference.UnicastBaseline` (``unicast``) through
  the spec's join/leave churn on a simulated clock with a simple
  serialization+propagation delivery model (:func:`_formula_delivery`).
  In ``sfu`` mode each receiver gets its own emulated downlink (the
  spec's ``receiver_links`` pin heterogeneous capacities; unlisted
  peers inherit the main trace) and a frame renders only when the
  *slowest* receiver's forward lands inside the playout budget.  The spec has
  already checked its roster, so no join or leave can fail mid-run.
  What matters for the regression corpus is that every path is
  deterministic in the spec.

Both paths are byte-deterministic: same spec, same report.
"""

from __future__ import annotations

from repro.capture.dataset import load_video
from repro.core.config import FPS, FRAME_INTERVAL_S, HORIZON_S, PLAYOUT_DELAY_S
from repro.core.session import LiVoSession
from repro.core.stats import FaultEvent, FrameRecord, SessionReport
from repro.prediction.pose import user_traces_for_video
from repro.scenario.spec import ScenarioSpec
from repro.sfu.room import Room
from repro.transport.downlink import DownlinkSet
from repro.transport.traces import constant_trace

__all__ = ["run_scenario"]


def run_scenario(spec: ScenarioSpec) -> SessionReport:
    """Execute one scenario deterministically and return its report."""
    if spec.kind == "multiway":
        return _run_multiway(spec)
    return _run_livo(spec)


def _load_workload(spec: ScenarioSpec):
    _, scene = load_video(spec.video, sample_budget=spec.sample_budget)
    traces = user_traces_for_video(spec.video, spec.frames + 10)
    user = traces[spec.user_index % len(traces)]
    return scene, user


def _run_livo(spec: ScenarioSpec) -> SessionReport:
    scene, user = _load_workload(spec)
    session = LiVoSession(spec.build_config())
    return session.run(
        scene,
        user,
        spec.build_trace(),
        spec.frames,
        video_name=spec.video,
        fault_plan=None if spec.faults.is_empty else spec.faults,
    )


def _run_multiway(spec: ScenarioSpec) -> SessionReport:
    """Churn harness: peers join/leave a conference mid-session.

    Each tick's delivery is :func:`_formula_delivery`.  Faults are
    limited to churn events themselves (recorded as FaultEvents), which
    is plenty to regression-pin join/leave behavior.
    """
    config = spec.build_config()
    room = Room(config, spec.video, spec.frames + 10)
    bandwidth = spec.build_trace()
    downlink_traces = {
        link.peer: constant_trace(link.mbps, duration_s=spec.duration_s + 10.0)
        for link in spec.receiver_links
    }
    if spec.multiway_mode == "unicast":
        party = room.unicast()
    else:
        # "sfu" forwards down per-receiver links; "shared" is the same
        # driver with none, so only the uplink stream is on the wire.
        downlinks = (
            DownlinkSet(bandwidth, config.link) if spec.multiway_mode == "sfu" else None
        )
        party = room.conference(downlinks)

    # Pose traces go by first-join order: a rejoining peer resumes its own.
    peer_traces: dict[str, object] = {}

    def join(peer: str) -> None:
        if peer not in peer_traces:
            peer_traces[peer] = room.pose_trace(len(peer_traces))
        party.join(peer, peer_traces[peer], downlink_traces.get(peer))

    for peer in spec.initial_peers:
        join(peer)

    churn = sorted(spec.churn, key=lambda event: event.time_s)
    churn_index = 0
    events: list[FaultEvent] = []
    records: list[FrameRecord] = []
    for sequence in range(spec.frames):
        now = sequence * FRAME_INTERVAL_S
        while churn_index < len(churn) and churn[churn_index].time_s <= now:
            event = churn[churn_index]
            churn_index += 1
            if event.action == "join":
                join(event.peer)
            else:
                party.leave(event.peer)
            events.append(
                FaultEvent(
                    time_s=now,
                    category=f"peer_{event.action}",
                    detail=f"{event.peer} ({len(party.receiver_names)} active)",
                    sequence=sequence,
                    recovered=event.action == "join",
                )
            )
        if party.receiver_names:
            frame = room.source.capture(sequence)
            records.append(_formula_delivery(spec, config, party, frame, bandwidth))
        else:
            records.append(FrameRecord(
                sequence=sequence, capture_time_s=now, rendered=False, stalled=False, empty=True
            ))

    return SessionReport(
        scheme=f"Multiway-{spec.multiway_mode}",
        video=spec.video,
        user_trace=",".join(spec.initial_peers),
        network_trace=bandwidth.name,
        fps_target=FPS,
        duration_s=spec.frames * FRAME_INTERVAL_S,
        frames=records,
        mean_capacity_mbps=bandwidth.mean_mbps,
        trace_scale=1.0,
        fault_events=events,
    )


def _formula_delivery(spec: ScenarioSpec, config, party, frame, bandwidth) -> FrameRecord:
    """One multiway tick, delivered by a serialization+propagation formula.

    The (shared or summed) stream serializes at the trace's
    instantaneous capacity plus one propagation delay; a frame renders
    when that lands inside the playout budget.  In ``sfu`` mode it lands
    only when the *slowest* receiver's forwarded burst does (per-link
    emulated delivery plus any extra per-receiver propagation from the
    spec).
    """
    sequence = frame.sequence
    now = sequence * FRAME_INTERVAL_S
    capacity_bps = bandwidth.capacity_bps_at(now)
    sent_before = party.uplink_bytes
    produced = party.tick(frame, now, 0.5 * capacity_bps, HORIZON_S)
    wire_bytes = party.uplink_bytes - sent_before
    record = FrameRecord(
        sequence=sequence,
        capture_time_s=now,
        rendered=False,
        stalled=True,
        wire_bytes=wire_bytes,
        total_points=frame.total_points(),
    )
    if wire_bytes == 0:
        record.stalled = False
        record.empty = True
    if wire_bytes <= 0 or capacity_bps <= 0.0:
        return record
    delivery = now + wire_bytes * 8.0 / capacity_bps + config.link.propagation_delay_s
    if spec.multiway_mode == "sfu":
        extra_propagation = {
            link.peer: link.propagation_s
            for link in spec.receiver_links
            if link.propagation_s is not None
        }
        forwarded = [
            decision.delivery_time_s + extra_propagation.get(peer, 0.0)
            for peer, decision in produced.decisions.items()
            if decision.delivery_time_s is not None
        ]
        if forwarded:
            delivery = max(delivery, max(forwarded))
    record.delivery_time_s = delivery
    if delivery <= now + PLAYOUT_DELAY_S:
        record.rendered = True
        record.stalled = False
    return record
