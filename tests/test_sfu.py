"""Tests for the SFU subsystem: cull cache, node, downlinks, fleet."""

import numpy as np
import pytest

from repro.capture.dataset import load_video
from repro.capture.rgbd import MultiViewFrame
from repro.capture.rig import default_rig
from repro.core.config import SessionConfig
from repro.core.multiway import cull_views_union
from repro.core.sender import LiVoSender
from repro.geometry.frustum import Frustum
from repro.obs.metrics import MetricsRegistry
from repro.perf import culling
from repro.perf.culling import CullCache
from repro.prediction.pose import Pose
from repro.sfu import SFUNode, TIER_SCALES
from repro.transport.downlink import DownlinkSet, MTU_BYTES
from repro.transport.link import LinkConfig
from repro.transport.traces import constant_trace
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
    return Frustum.from_camera(
        np.asarray(position, dtype=float), np.eye(3),
        vertical_fov_deg=fov, aspect=1.4, near_m=0.1, far_m=6.0,
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
# CullCache
# ----------------------------------------------------------------------


class TestCullCache:
    def test_cached_union_cull_byte_identical(self, setup):
        _, rig, scene = setup
        frame = rig.capture(scene, 0)
        frustums = [
            narrow_frustum([0.6, 1.0, -2.0]), narrow_frustum([-0.6, 1.0, -2.0])
        ]
        plain = cull_views_union(frame, rig.cameras, frustums)
        cached = cull_views_union(frame, rig.cameras, frustums, cache=CullCache())
        for a, b in zip(plain.views, cached.views):
            assert np.array_equal(a.color, b.color)
            assert np.array_equal(a.depth_mm, b.depth_mm)

    def test_repeat_cull_hits_cache(self, setup):
        _, rig, scene = setup
        frame = rig.capture(scene, 0)
        frustum = narrow_frustum([0.0, 1.2, -2.0])
        cache = CullCache()
        cull_views_union(frame, rig.cameras, [frustum], cache=cache)
        # One (receiver, camera) row of the table built per camera, and
        # one point grid each: all misses, nothing to read back yet.
        cameras = len(rig.cameras)
        assert (cache.counters.misses, cache.counters.hits) == (2 * cameras, 0)
        cull_views_union(frame, rig.cameras, [frustum], cache=cache)
        # Same frame, same planes: every row is read back from the table.
        assert (cache.counters.misses, cache.counters.hits) == (2 * cameras, cameras)

    def test_new_sequence_invalidates_frame_memos(self, setup):
        _, rig, scene = setup
        frustum = narrow_frustum([0.0, 1.2, -2.0])
        cache = CullCache()
        first = cull_views_union(
            rig.capture(scene, 0), rig.cameras, [frustum], cache=cache
        )
        second = cull_views_union(
            rig.capture(scene, 5), rig.cameras, [frustum], cache=cache
        )
        plain = cull_views_union(rig.capture(scene, 5), rig.cameras, [frustum])
        # Frame 5's cached cull matches an uncached cull of frame 5:
        # frame 0's memoized grids did not leak across the sequence.
        for a, b in zip(second.views, plain.views):
            assert np.array_equal(a.depth_mm, b.depth_mm)
        assert first.total_points() >= 0

    def test_valid_mask_fresh_per_call(self, setup):
        """Masks come from the passed depth, not the memoized grid."""
        _, rig, scene = setup
        frame = rig.capture(scene, 0)
        camera = rig.cameras[0]
        cache = CullCache()
        cache.begin_frame(0)
        _, valid = cache.local_points(camera, frame.views[0].depth_mm)
        zeroed = frame.views[0].depth_mm.copy()
        zeroed[:] = 0
        _, valid_zero = cache.local_points(camera, zeroed)
        assert valid.any()
        assert not valid_zero.any()

    def test_grids_keyed_by_capture_not_sequence(self, setup):
        """Two captures with one sequence number -- a scene-epoch bump
        re-rendering frame 0, a stale camera replaying an older view --
        never share a point grid or a table: every cull through one
        long-lived cache equals the same cull with a fresh CullCache()."""
        _, rig, scene = setup
        frustum = narrow_frustum([0.0, 1.2, -2.0])
        first = rig.capture(scene, 0)
        later = rig.capture(scene, 9)
        rerendered = MultiViewFrame(later.views, sequence=0)
        stale = MultiViewFrame(
            [later.views[0], *first.views[1:]], sequence=0
        )
        cache = CullCache()
        for capture in (first, rerendered, stale, first):
            culled = cull_views_union(capture, rig.cameras, [frustum], cache=cache)
            fresh = cull_views_union(capture, rig.cameras, [frustum], cache=CullCache())
            for a, b in zip(culled.views, fresh.views):
                assert np.array_equal(a.depth_mm, b.depth_mm)
                assert np.array_equal(a.color, b.color)
        assert not np.array_equal(first.views[0].depth_mm, later.views[0].depth_mm)

    def test_caches_culling_one_capture_share_its_grids(self, setup):
        """Every cache culling one capture reads the same read-only grid
        per camera; each still counts its own first read a miss."""
        _, rig, scene = setup
        frame = rig.capture(scene, 0)
        frustum = narrow_frustum([0.0, 1.2, -2.0])
        caches = [CullCache(), CullCache()]
        for cache in caches:
            cull_views_union(frame, rig.cameras, [frustum], cache=cache)
            assert cache.counters.misses == 2 * len(rig.cameras)
        for camera, view in zip(rig.cameras, frame.views):
            grids = [cache.local_points(camera, view.depth_mm)[0] for cache in caches]
            assert grids[0] is grids[1]
            assert not grids[0].flags.writeable

    def test_two_party_cull_holds_no_grid(self, setup):
        """The two-party sender keeps one CullCache for its lifetime
        (the rig's inverted extrinsics), and once its cull returns no
        grid of the capture is held anywhere."""
        config, rig, scene = setup
        sender = LiVoSender(rig.cameras, config)
        cache = sender.cull_cache
        sender.observe_pose(poses_for(["r0"])["r0"], 0.0)
        for sequence in range(3):
            frame = rig.capture(scene, sequence)
            prepared = sender.prepare(frame, 0.1)
            assert prepared.culled_points < prepared.total_points
            assert sender.cull_cache is cache
            assert not cache._points and cache._table is None
            for camera, view in zip(rig.cameras, frame.views):
                assert (id(view.depth_mm), id(camera)) not in culling._GRIDS
        assert len(cache._w2c) == len(rig.cameras)


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
        assert send.size_bytes == size
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
    """Feed poses + union-culled uplink, collect per-frame decisions.

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
        frustums = node.predicted_frustums(sequence, horizon)
        culled = (
            cull_views_union(
                frame, rig.cameras, list(frustums.values()), cache=node.cull_cache
            )
            if frustums
            else frame
        )
        uplink = sender.process(culled, target_bps, horizon)
        node.ingest(frame, uplink, now)
        out.append(
            node.forward(now, horizon, forward_bps if forward_bps else target_bps)
        )
    return out


def decisions_signature(runs):
    return [
        {
            name: (d.bytes, d.rung, d.kept_points, d.union_points)
            for name, d in decisions.items()
        }
        for decisions in runs
    ]


class TestSFUNode:
    def node(self, setup, downlinks=False):
        config, rig, _ = setup
        links = (
            DownlinkSet(constant_trace(4.0, 30.0), LinkConfig(seed=5))
            if downlinks
            else None
        )
        node = SFUNode(rig.cameras, config, downlinks=links)
        for name in ("r0", "r1"):
            node.add_receiver(name)
        return node, config

    def test_forward_without_ingest_is_empty(self, setup):
        node, _ = self.node(setup)
        assert node.forward(0.0, 0.1, 8e6) == {}

    def test_deterministic_replay(self, setup):
        config, rig, scene = setup

        def run():
            node, _ = self.node(setup, downlinks=True)
            out = drive_node(node, rig, scene, config, frames=4)
            node.close()
            return decisions_signature(out)

        assert run() == run()

    def test_cull_cache_parity(self, setup, oracle_transform):
        """The node's memoized culls reproduce what the cache-less node
        decided before it was deleted (tests/twins.py)."""
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
        frustums = node.predicted_frustums(0, 0.1)
        assert "mute" not in frustums
        culled = cull_views_union(
            frame, rig.cameras, list(frustums.values()), cache=node.cull_cache
        )
        uplink = sender.process(culled, 8e6, 0.1)
        node.ingest(frame, uplink, 0.0)
        decisions = node.forward(0.0, 0.1, 8e6)
        assert decisions["mute"].kept_points == decisions["mute"].union_points
        assert decisions["r0"].kept_points < decisions["r0"].union_points

    def test_rung_descends_one_step_per_frame_under_starvation(self, setup):
        """Rich uplink, starved downlink: the tier ladder steps down one
        rung per frame until it bottoms out at the deepest tier."""
        config, rig, scene = setup
        node, _ = self.node(setup)
        out = drive_node(
            node, rig, scene, config, frames=5, target_bps=8e6, forward_bps=2e4
        )
        rungs = [d["r0"].rung for d in out]
        assert rungs[0] == 1  # one step down, not a cliff
        for previous, current in zip(rungs, rungs[1:]):
            assert abs(current - previous) <= 1
        # Starved at 20 kbps, it must reach the deepest tier.
        assert rungs[-1] == len(TIER_SCALES) - 1

    def test_forward_decision_invariants(self, setup):
        config, rig, scene = setup
        node, _ = self.node(setup)
        out = drive_node(node, rig, scene, config, frames=2, target_bps=8e6)
        for decisions in out:
            for decision in decisions.values():
                assert 0 <= decision.kept_points <= decision.union_points
                if decision.kept_points:
                    assert decision.bytes > 0

    def test_remove_receiver_clears_state(self, setup):
        node, _ = self.node(setup, downlinks=True)
        node.remove_receiver("r1")
        assert "r1" not in node.book
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
        assert "sfu.rx.r0.bytes" in names
        assert registry.get("sfu.frames_ingested").value == 2
        assert registry.get("sfu.receivers").value == 2.0


# ----------------------------------------------------------------------
# Fleet harness
# ----------------------------------------------------------------------


class TestFleet:
    def test_tiny_fleet_runs_and_saves_uplink(self, fleet_shape):
        from repro.sfu import FleetConfig, run_fleet

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
        from repro.sfu import FleetConfig, run_fleet

        fleet_shape(receivers=2, churn_every=2, sample_budget=1500, unicast_control=1)
        fleet = FleetConfig(sessions=2, frames=5)
        first = run_fleet(fleet)
        second = run_fleet(fleet)
        assert first.sfu_uplink_bytes_per_frame == second.sfu_uplink_bytes_per_frame
        assert first.sfu_downlink_bytes_per_frame == second.sfu_downlink_bytes_per_frame
        assert first.churn_events == second.churn_events

    def test_invalid_config_rejected(self):
        from repro.sfu import FleetConfig

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
        from repro.sfu import FleetConfig, run_fleet

        if field == "seed":
            with pytest.raises(ValueError, match=field):
                FleetConfig(sessions=2, frames=2, seed=value)
            return
        fleet_shape(sample_budget=value)
        with pytest.raises(ValueError, match=field):
            run_fleet(FleetConfig(sessions=2, frames=2))
