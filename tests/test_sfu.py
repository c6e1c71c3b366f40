"""Tests for the SFU subsystem: node, downlinks, fleet."""

import numpy as np
import pytest

from repro.capture.dataset import load_video
from repro.capture.rgbd import MultiViewFrame
from repro.capture.rig import default_rig
from repro.core.config import FPS, HORIZON_S, SessionConfig
from repro.core.multiway import cull_views_union
from repro.core.sender import LiVoSender, SenderResult
from repro.geometry.frustum import Frustum, camera_planes
from repro.obs.metrics import MetricsRegistry
from repro.prediction.culling import cull_views
from repro.prediction.pose import Pose
from repro.sfu.node import SFUNode, SFUTick, TIER_SCALES
from repro.sfu.room import Room
from repro.transport.downlink import DownlinkSet
from repro.transport.packet import MTU_BYTES
from repro.transport.link import LinkConfig
from repro.transport.traces import BandwidthTrace, constant_trace
from tests.twins import assert_pinned

# Batched plane geometry divides by vectorised norms: a degenerate plane
# must stay a ValueError, never a warning and a NaN mask.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def setup():
    config = SessionConfig(
        num_cameras=4, camera_width=48, camera_height=36,
        scene_sample_budget=8_000, gop_size=8,
    )
    rig = default_rig(num_cameras=4, width=48, height=36)
    _, scene = load_video("pizza1", sample_budget=8_000)
    return config, rig, scene


def narrow_frustum(position, fov=35.0):
    return Frustum.of_unit_rows(
        camera_planes(np.asarray(position, dtype=float), np.eye(3), fov, 1.4, 0.1, 6.0)
    )


def poses_for(names):
    spots = {
        0: [1.2, 1.4, -1.6], 1: [-1.2, 1.4, -1.6],
        2: [0.0, 1.6, 1.8], 3: [1.5, 1.2, 1.0],
    }
    return {
        name: Pose.looking_at(
            np.array(spots[index % 4], dtype=float), np.array([0.0, 1.0, 0.0])
        )
        for index, name in enumerate(names)
    }


# ----------------------------------------------------------------------
# DownlinkSet
# ----------------------------------------------------------------------


class TestDownlinkSet:
    def links(self):
        return DownlinkSet(constant_trace(4.0, 30.0), LinkConfig(seed=3))

    def test_membership_and_packetization(self):
        links = self.links()
        links.add("a")
        assert "a" in links and len(links) == 1
        size = int(2.5 * MTU_BYTES)
        send = links.send("a", 0.0, size)
        assert send.packets == 3
        assert send.delivered_packets == 3
        assert send.delivery_time_s is not None

    def test_per_receiver_traces_and_removal(self):
        links = self.links()
        links.add("fast", constant_trace(50.0, 30.0))
        links.add("slow", constant_trace(0.5, 30.0))
        fast = links.send("fast", 0.0, 6 * MTU_BYTES)
        slow = links.send("slow", 0.0, 6 * MTU_BYTES)
        assert fast.delivery_time_s < slow.delivery_time_s
        links.remove("slow")
        assert "slow" not in links
        with pytest.raises(KeyError):
            links.link("slow")

    def test_rejoin_gets_fresh_seeded_link(self):
        """Join ordinal seeds each link: a rejoin is a new link, and two
        identical histories produce identical deliveries."""

        def run():
            links = DownlinkSet(constant_trace(4.0, 30.0), LinkConfig(seed=3))
            links.add("a")
            links.add("b")
            links.remove("a")
            links.add("a")
            return links.send("a", 0.0, 5 * MTU_BYTES).arrival_times_s

        assert run() == run()

    def test_metrics_exported(self):
        links = self.links()
        links.add("a")
        links.send("a", 0.0, 3000)
        registry = MetricsRegistry()
        links.metrics_into(registry)
        names = registry.names()
        assert "sfu.downlink.bursts" in names
        assert "sfu.downlink.packets_sent" in names


# ----------------------------------------------------------------------
# SFUNode
# ----------------------------------------------------------------------


def drive_node(node, rig, scene, config, frames, target_bps=8e6, churn=None,
               forward_bps=None):
    """Feed poses + union-culled uplink, collect one tick per frame.

    ``forward_bps`` lets a test starve the downlinks while the uplink
    encode stays rich (defaults to ``target_bps`` for both).
    """
    sender = LiVoSender(rig.cameras, config, node.device)
    poses = poses_for([f"r{i}" for i in range(8)])
    horizon = 0.1
    out = []
    for sequence in range(frames):
        now = sequence / 30.0
        if churn:
            churn(node, sequence, now)
        for name in node.receiver_names:
            node.observe_pose(name, poses.get(name) or poses["r0"], now)
        frame = rig.capture(scene, sequence)
        frustums = node.predicted_frustums(horizon)
        culled, inside = (
            cull_views_union(frame, rig.cameras, list(frustums.values()))
            if frustums
            else (frame, None)
        )
        uplink = sender.process(culled, target_bps, horizon)
        decisions = node.forward(
            uplink, frustums, inside, now, forward_bps if forward_bps else target_bps
        )
        out.append(SFUTick(frame, uplink, decisions))
    return out


def decisions_signature(ticks):
    return [
        {
            name: (d.bytes, d.rung, d.kept_points, tick.uplink.culled_multiview.total_points())
            for name, d in tick.decisions.items()
        }
        for tick in ticks
    ]


class TestSFUNode:
    def node(self, setup, downlinks=False):
        config, rig, _ = setup
        links = (
            DownlinkSet(constant_trace(4.0, 30.0), LinkConfig(seed=5))
            if downlinks
            else None
        )
        node = SFUNode(downlinks=links)
        for name in ("r0", "r1"):
            node.add_receiver(name)
        return node, config

    def test_join_reads_the_cached_mean_not_the_stats(self, setup, monkeypatch):
        # A join used to compute the trace's whole Table 4 summary
        # (two percentiles) to read its mean.
        def no_stats(trace):
            raise AssertionError("add_receiver computed the trace's stats")

        monkeypatch.setattr(BandwidthTrace, "stats", no_stats)
        node, _ = self.node(setup, downlinks=True)
        node.add_receiver("late", constant_trace(6.0, 30.0))
        assert node.receiver_names == ["r0", "r1", "late"]
        assert node.receivers["late"].gcc.config.initial_rate_bps == 0.5 * 6.0 * 1e6

    def test_forward_without_ingest_is_empty(self, setup):
        """Forwarding a frame that brought no uplink decides nothing."""
        node, _ = self.node(setup)
        assert node.forward(None, {}, None, 0.0, 8e6) == {}

    def test_deterministic_replay(self, setup):
        config, rig, scene = setup

        def run():
            node, _ = self.node(setup, downlinks=True)
            out = drive_node(node, rig, scene, config, frames=4)
            return decisions_signature(out)

        assert run() == run()

    def test_cull_cache_parity(self, setup, oracle_transform):
        """Forwarding from the union cull's table reproduces what the node
        decided when it re-culled every receiver (tests/twins.py)."""
        config, rig, scene = setup
        node, _ = self.node(setup)
        decisions = drive_node(node, rig, scene, config, frames=3)
        assert_pinned("sfu:node_decisions", decisions_signature(decisions))

    def test_cold_receiver_gets_full_union(self, setup):
        """A receiver that has never reported a pose receives the whole
        union stream until its predictor warms up."""
        config, rig, scene = setup
        node, _ = self.node(setup)
        node.add_receiver("mute")
        sender = LiVoSender(rig.cameras, config, node.device)
        poses = poses_for(["r0", "r1"])
        for name in ("r0", "r1"):
            node.observe_pose(name, poses[name], 0.0)
        frame = rig.capture(scene, 0)
        frustums = node.predicted_frustums(0.1)
        assert "mute" not in frustums
        culled, inside = cull_views_union(frame, rig.cameras, list(frustums.values()))
        uplink = sender.process(culled, 8e6, 0.1)
        decisions = node.forward(uplink, frustums, inside, 0.0, 8e6)
        union = uplink.culled_multiview.total_points()
        assert decisions["mute"].kept_points == union
        assert decisions["r0"].kept_points < union

    def test_rung_descends_one_step_per_frame_under_starvation(self, setup):
        """Rich uplink, starved downlink: the tier ladder steps down one
        rung per frame until it bottoms out at the deepest tier."""
        config, rig, scene = setup
        node, _ = self.node(setup)
        out = drive_node(
            node, rig, scene, config, frames=5, target_bps=8e6, forward_bps=2e4
        )
        rungs = [tick.decisions["r0"].rung for tick in out]
        assert rungs[0] == 1  # one step down, not a cliff
        for previous, current in zip(rungs, rungs[1:]):
            assert abs(current - previous) <= 1
        # Starved at 20 kbps, it must reach the deepest tier.
        assert rungs[-1] == len(TIER_SCALES) - 1

    def test_forward_decision_invariants(self, setup):
        config, rig, scene = setup
        node, _ = self.node(setup)
        out = drive_node(node, rig, scene, config, frames=2, target_bps=8e6)
        for tick in out:
            union = tick.uplink.culled_multiview.total_points()
            for decision in tick.decisions.values():
                assert 0 <= decision.kept_points <= union
                if decision.kept_points:
                    assert decision.bytes > 0

    def test_remove_receiver_clears_state(self, setup):
        node, _ = self.node(setup, downlinks=True)
        node.remove_receiver("r1")
        assert "r1" not in node.receivers
        assert "r1" not in node.downlinks
        with pytest.raises(ValueError):
            node.remove_receiver("r1")

    def test_metrics_exported(self, setup):
        config, rig, scene = setup
        node, _ = self.node(setup, downlinks=True)
        drive_node(node, rig, scene, config, frames=2)
        registry = MetricsRegistry()
        node.metrics_into(registry)
        names = registry.names()
        assert "sfu.frames_ingested" in names
        assert "sfu.uplink_bytes" in names
        assert "sfu.forwarded_bytes" in names
        assert registry.get("sfu.frames_ingested").value == 2
        assert registry.get("sfu.receivers").value == 2.0


class TestForwardedContent:
    """What the SFU forwards each receiver is, view by view, what the
    unicast pipeline culls for that receiver: the union culled to the
    node's predicted frustum equals the capture culled to it, because
    each frustum lies inside the union."""

    def test_sfu_share_equals_unicast_cull(self):
        config = SessionConfig(
            num_cameras=3, camera_width=32, camera_height=24,
            scene_sample_budget=4_000, gop_size=8,
        )
        room = Room(config, "band2", 20)
        sfu, unicast = room.conference(), room.unicast()
        for party in (sfu, unicast):
            for index in range(3):
                party.join(f"r{index}", room.pose_trace(index))
        compared = 0
        for sequence in range(6):
            if sequence == 3:
                for party in (sfu, unicast):
                    party.leave("r1")
                    party.join("r3", room.pose_trace(3))
            frame = room.source.capture(sequence)
            now = sequence / FPS
            tick = sfu.tick(frame, now, 8e6, HORIZON_S)
            expected = unicast.tick(frame, now, 8e6, HORIZON_S)
            union = tick.uplink.culled_multiview
            frustums = sfu.node.predicted_frustums(HORIZON_S)
            assert set(tick.decisions) == set(expected) == set(frustums)
            for name, decision in tick.decisions.items():
                forwarded = cull_views(union, room.source.rig.cameras, frustums[name])
                reference = expected[name].culled_multiview
                assert decision.kept_points == forwarded.total_points()
                for sfu_view, unicast_view in zip(
                    forwarded.views, reference.views, strict=True
                ):
                    assert np.array_equal(sfu_view.depth_mm, unicast_view.depth_mm)
                    assert np.array_equal(sfu_view.color, unicast_view.color)
                compared += 1
        assert compared == 18


class TestOneSeatPerReceiver:
    def test_driver_counts_are_the_nodes_and_no_receiver_tally_is_written(self):
        """On a churned SFU conference the driver reports the node's byte
        counts, which are the ticks' uplink and forwarded bytes summed,
        and the node exports no per-receiver ``sfu.rx.*`` names."""
        config = SessionConfig(
            num_cameras=3, camera_width=32, camera_height=24,
            scene_sample_budget=3_000, gop_size=4,
        )
        room = Room(config, "band2", 20, downlink_mbps=4.0)
        driver = room.conference(room.downlinks(3))
        for index in range(3):
            driver.join(f"r{index}")
        node = driver.node
        uplink = downlink = 0
        for sequence in range(8):
            if sequence == 3:
                driver.leave("r1")
            if sequence == 5:
                driver.join("r3")
            tick = driver.tick(room.source.capture(sequence), sequence / FPS, 2e6, HORIZON_S)
            uplink += tick.uplink.total_bytes
            downlink += sum(decision.bytes for decision in tick.decisions.values())
            assert (driver.uplink_bytes, driver.downlink_bytes) == (uplink, downlink)
            assert (node.uplink_bytes, node.forwarded_bytes) == (uplink, downlink)
        assert downlink > 0
        assert driver.receiver_names == list(node.receivers) == ["r0", "r2", "r3"]
        registry = MetricsRegistry()
        node.metrics_into(registry)
        assert not [name for name in registry.names() if name.startswith("sfu.rx.")]
        assert registry.get("sfu.receiver_joins").value == 4
        assert registry.get("sfu.receiver_leaves").value == 1
        assert registry.get("sfu.forwarded_bytes").value == downlink


def _frame_state(value, path, seen):
    """Every (path, value) under ``value`` that is a frame's data."""
    if id(value) in seen or isinstance(value, (str, bytes, int, float, type(None))):
        return
    seen.add(id(value))
    if isinstance(value, (np.ndarray, SenderResult, MultiViewFrame)):
        yield path, value
        return
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple, set)):
        items = enumerate(value)
    else:
        items = getattr(value, "__dict__", {}).items()
    for key, item in items:
        yield from _frame_state(item, f"{path}.{key}", seen)


class TestNothingOfAFrameOutlivesItsTick:
    def test_node_holds_no_frame_between_ticks(self):
        """After a tick the node holds no array, uplink or capture: the
        frame's frustums, visibility table and uplink were handed from
        step to step and dropped.  Only the seats' own state (their
        predictors and links) persists from frame to frame."""
        config = SessionConfig(
            num_cameras=3, camera_width=32, camera_height=24,
            scene_sample_budget=3_000, gop_size=4,
        )
        room = Room(config, "band2", 20, downlink_mbps=4.0)
        driver = room.conference(room.downlinks(3))
        for index in range(2):
            driver.join(f"r{index}", room.pose_trace(index))
        node = driver.node
        for sequence in range(3):
            tick = driver.tick(room.source.capture(sequence), sequence / FPS, 2e6, HORIZON_S)
            assert tick.decisions and tick.uplink.culled_multiview.total_points()
            seats = {"receivers", "downlinks", "device"}
            held = [
                path
                for name, value in vars(node).items()
                if name not in seats
                for path, _ in _frame_state(value, name, set())
            ]
            assert held == []
            assert set(vars(node)) >= seats


# ----------------------------------------------------------------------
# Fleet harness
# ----------------------------------------------------------------------


class TestFleet:
    def test_tiny_fleet_runs_and_saves_uplink(self, fleet_shape):
        from repro.sfu.fleet import FleetConfig, run_fleet

        fleet_shape(receivers=2, churn_every=3, sample_budget=1500, unicast_control=1)
        fleet = FleetConfig(sessions=3, frames=6)
        result = run_fleet(fleet)
        assert result.session_frames == 18
        assert result.churn_events > 0
        assert result.sfu_uplink_bytes_per_frame <= result.unicast_uplink_bytes_per_frame
        assert result.latency_ms_p99 >= result.latency_ms_p50
        assert result.sessions == 3
        metrics = result.sfu_metrics
        assert "sfu.frames_ingested" in metrics
        # Fleet-wide aggregation: ingested frames across 3 sessions x 6
        # frames, not one sample conference's 6.
        assert metrics["sfu.frames_ingested"]["value"] == 18

    def test_fleet_byte_deterministic(self, fleet_shape):
        from repro.sfu.fleet import FleetConfig, run_fleet

        fleet_shape(receivers=2, churn_every=2, sample_budget=1500, unicast_control=1)
        fleet = FleetConfig(sessions=2, frames=5)
        first = run_fleet(fleet)
        second = run_fleet(fleet)
        assert first.sfu_uplink_bytes_per_frame == second.sfu_uplink_bytes_per_frame
        assert first.sfu_downlink_bytes_per_frame == second.sfu_downlink_bytes_per_frame
        assert first.churn_events == second.churn_events

    def test_invalid_config_rejected(self):
        from repro.sfu.fleet import FleetConfig

        with pytest.raises(ValueError):
            FleetConfig(sessions=0)
        with pytest.raises(ValueError):
            FleetConfig(frames=0)

    @pytest.mark.parametrize(
        "field,value", [("sample_budget", 0), ("sample_budget", -5), ("seed", -1)]
    )
    def test_unusable_budget_or_seed_rejected(self, fleet_shape, field, value):
        # Rejected before any conference is built, not deep inside a run
        # or numpy's rng.  The budget is a module constant: run_fleet's
        # session config rejects it first thing.
        from repro.sfu.fleet import FleetConfig, run_fleet

        if field == "seed":
            with pytest.raises(ValueError, match=field):
                FleetConfig(sessions=2, frames=2, seed=value)
            return
        fleet_shape(sample_budget=value)
        with pytest.raises(ValueError, match=field):
            run_fleet(FleetConfig(sessions=2, frames=2))
