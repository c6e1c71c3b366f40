"""Tests for multi-way conferencing (one sender, several receivers)."""

import gc
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import repro
from repro.capture.dataset import load_video
from repro.capture.rgbd import MultiViewFrame
from repro.capture.rig import default_rig
from repro.core.config import SessionConfig
from repro.core.multiway import cull_views_union
from repro.geometry.frustum import Frustum, camera_planes
from repro.prediction.pose import Pose, PoseTrace
from repro.runtime.batchplane import BatchPlane
from repro.sfu.conference import ConferenceDriver, UnicastBaseline
from repro.transport.downlink import DownlinkSet
from repro.transport.link import LinkConfig
from repro.transport.traces import constant_trace


@pytest.fixture(scope="module")
def setup():
    config = SessionConfig(
        num_cameras=4, camera_width=48, camera_height=36,
        scene_sample_budget=12_000, gop_size=8,
    )
    rig = default_rig(num_cameras=4, width=48, height=36)
    _, scene = load_video("pizza1", sample_budget=12_000)
    return config, rig, scene


def narrow_frustum(position, fov=35.0):
    return Frustum.of_unit_rows(
        camera_planes(np.asarray(position, dtype=float), np.eye(3), fov, 1.4, 0.1, 6.0)
    )


class TestUnionCulling:
    def test_union_keeps_superset_of_each(self, setup):
        _, rig, scene = setup
        frame = rig.capture(scene, 0)
        f1 = narrow_frustum([0.6, 1.0, -2.0])
        f2 = narrow_frustum([-0.6, 1.0, -2.0])
        union, _ = cull_views_union(frame, rig.cameras, [f1, f2])
        from repro.prediction.culling import cull_views

        only1 = cull_views(frame, rig.cameras, f1)
        only2 = cull_views(frame, rig.cameras, f2)
        assert union.total_points() >= only1.total_points()
        assert union.total_points() >= only2.total_points()
        # And below the no-cull total (the frustums are narrow).
        assert union.total_points() < frame.total_points()

    def test_union_of_one_equals_single(self, setup):
        _, rig, scene = setup
        frame = rig.capture(scene, 0)
        frustum = narrow_frustum([0.0, 1.2, -2.0])
        from repro.prediction.culling import cull_views

        union, _ = cull_views_union(frame, rig.cameras, [frustum])
        single = cull_views(frame, rig.cameras, frustum)
        assert union.total_points() == single.total_points()

    def test_empty_frustum_list_rejected(self, setup):
        _, rig, scene = setup
        frame = rig.capture(scene, 0)
        with pytest.raises(ValueError):
            cull_views_union(frame, rig.cameras, [])


def still(pose):
    """A pose feed that reports ``pose`` at every frame."""
    return PoseTrace([pose])


POSES = {
    "alice": Pose.looking_at(np.array([1.2, 1.4, -1.6]), np.array([0, 1, 0])),
    "bob": Pose.looking_at(np.array([-1.2, 1.4, -1.6]), np.array([0, 1, 0])),
    "carol": Pose.looking_at(np.array([0.0, 1.6, 1.8]), np.array([0, 1, 0])),
}


def party_for(mode, rig, config):
    """The three fan-out strategies: SFU, shared stream, unicast control."""
    if mode == "unicast":
        return UnicastBaseline(rig, config)
    if mode == "sfu":
        downlinks = DownlinkSet(constant_trace(8.0, duration_s=5.0), config.link)
        return ConferenceDriver(rig, config, downlinks)
    return ConferenceDriver(rig, config)


def seated(mode, rig, config, names=("alice", "bob")):
    party = party_for(mode, rig, config)
    for name in names:
        party.join(name, still(POSES[name]))
    return party


class TestMultiwaySender:
    def test_shared_mode_single_encode(self, setup):
        config, rig, scene = setup
        driver = seated("shared", rig, config)
        tick = driver.tick(rig.capture(scene, 0), 0.0, 8e6, 0.1)
        assert driver.encoder_runs == 2
        assert tick.uplink.total_bytes == driver.uplink_bytes > 0
        # No downlinks: every receiver is offered its share of the one
        # stream, and nothing is put on a link.
        assert set(tick.decisions) == {"alice", "bob"}
        assert all(d.delivery_time_s is None for d in tick.decisions.values())

    def test_unicast_mode_per_receiver_encodes(self, setup):
        config, rig, scene = setup
        baseline = seated("unicast", rig, config)
        results = baseline.tick(rig.capture(scene, 0), 0.0, 8e6, 0.1)
        assert baseline.encoder_runs == 4
        assert set(results) == {"alice", "bob"}

    def test_shared_cheaper_uplink_than_unicast(self, setup):
        """The cross-receiver optimization the paper points at."""
        config, rig, scene = setup
        shared = seated("shared", rig, config)
        unicast = seated("unicast", rig, config)
        frame = rig.capture(scene, 0)
        shared.tick(frame, 0.0, 8e6, 0.1)
        unicast.tick(frame, 0.0, 8e6, 0.1)
        assert 0 < shared.uplink_bytes < unicast.uplink_bytes

    def test_shared_culls_union_before_encoding(self, setup):
        config, rig, scene = setup
        driver = seated("shared", rig, config, names=("alice",))
        frame = rig.capture(scene, 0)
        tick = driver.tick(frame, 0.0, 8e6, 0.1)
        assert tick.uplink.culled_multiview.total_points() < frame.total_points()

    def test_before_any_pose_sends_full_scene(self, setup):
        """Nobody to predict for: the union cull is skipped."""
        config, rig, scene = setup
        driver = ConferenceDriver(rig, config)
        frame = rig.capture(scene, 0)
        tick = driver.tick(frame, 0.0, 8e6, 0.1)
        assert tick.uplink.culled_multiview.total_points() == frame.total_points()
        assert tick.decisions == {}

    def test_invalid_construction(self, setup):
        """Rosters hold unique names; only a member can leave."""
        config, rig, _ = setup
        for mode in ("shared", "sfu", "unicast"):
            party = seated(mode, rig, config, names=("alice",))
            with pytest.raises(ValueError):
                party.join("alice", still(POSES["alice"]))
            with pytest.raises(ValueError):
                party.leave("bob")
            assert party.receiver_names == ["alice"], mode
            if mode == "sfu":
                # The rejected join provisioned no second link.
                assert party.node.downlinks.names == ["alice"]

    def test_receiver_names(self, setup):
        config, rig, _ = setup
        for mode in ("shared", "sfu", "unicast"):
            party = seated(mode, rig, config, names=("bob", "alice"))
            assert party.receiver_names == ["bob", "alice"], mode

    def test_shared_matches_manual_pipeline_byte_for_byte(self, setup):
        """The driver's uplink is exactly predict -> union-cull -> one encode.

        Rebuilding that pipeline by hand from the public pieces must
        produce bit-identical payloads."""
        from repro.core.sender import LiVoSender
        from repro.prediction.predictor import FrustumPredictor

        config, rig, scene = setup
        driver = seated("shared", rig, config)
        manual = LiVoSender(rig.cameras, config, driver.device)
        predictors = {
            name: FrustumPredictor(driver.device)
            for name in ("alice", "bob")
        }
        for sequence in range(3):
            now = sequence / 30.0
            for name, predictor in predictors.items():
                predictor.observe(POSES[name], now)
            frame = rig.capture(scene, sequence)
            tick = driver.tick(frame, now, 8e6, 0.1)
            frustums = [
                p.predict_frustum(0.1) for p in predictors.values() if p.ready
            ]
            culled = (
                cull_views_union(frame, rig.cameras, frustums)[0] if frustums else frame
            )
            expected = manual.process(culled, 8e6, 0.1)
            assert tick.uplink.color_frame.payload == expected.color_frame.payload
            assert tick.uplink.depth_frame.payload == expected.depth_frame.payload


class TestChurnParity:
    """Mid-session join/leave must behave identically across modes."""

    CHURN = {2: ("join", "carol"), 4: ("leave", "bob")}
    FRAMES = 6

    def run_mode(self, setup, mode):
        config, rig, scene = setup
        party = seated(mode, rig, config)
        rosters = []
        runs = []
        bytes_per_frame = []
        for sequence in range(self.FRAMES):
            event = self.CHURN.get(sequence)
            if event:
                action, name = event
                if action == "join":
                    party.join(name, still(POSES[name]))
                else:
                    party.leave(name)
            runs_before, bytes_before = party.encoder_runs, party.uplink_bytes
            party.tick(rig.capture(scene, sequence), sequence / 30.0, 8e6, 0.1)
            rosters.append(party.receiver_names)
            runs.append(party.encoder_runs - runs_before)
            bytes_per_frame.append(party.uplink_bytes - bytes_before)
        return rosters, runs, bytes_per_frame

    def test_rosters_identical_and_encoder_runs_scale(self, setup):
        by_mode = {
            mode: self.run_mode(setup, mode)
            for mode in ("shared", "unicast", "sfu")
        }
        rosters = {mode: rows[0] for mode, rows in by_mode.items()}
        # Same join-order roster after every churn event, in all modes.
        assert rosters["shared"] == rosters["unicast"] == rosters["sfu"]
        assert rosters["shared"][2] == ["alice", "bob", "carol"]
        assert rosters["shared"][4] == ["alice", "carol"]
        # Unicast encodes once per active receiver; shared and sfu keep
        # exactly one encoder pair regardless of churn.
        for sequence, roster in enumerate(rosters["unicast"]):
            assert by_mode["unicast"][1][sequence] == 2 * len(roster)
            assert by_mode["shared"][1][sequence] == 2
            assert by_mode["sfu"][1][sequence] == 2
        # SFU's uplink is the shared stream, byte for byte, under churn.
        assert by_mode["sfu"][2] == by_mode["shared"][2]

    def test_no_leaked_encoder_workers(self, setup, monkeypatch):
        """A conference opens one sender pipeline whatever its roster and
        reports ``closed`` once closed (the service's ``live_drivers()``
        leak gauge reads exactly that); the unicast control opens one per
        receiver and drops the leaver's the moment it leaves."""
        from repro.core.sender import LiVoSender

        opened = []
        original_init = LiVoSender.__init__

        def tracking_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            opened.append(self)

        monkeypatch.setattr(LiVoSender, "__init__", tracking_init)

        config, rig, scene = setup
        for mode in ("shared", "unicast", "sfu"):
            opened.clear()
            party = seated(mode, rig, config)
            party.join("carol", still(POSES["carol"]))
            party.tick(rig.capture(scene, 0), 0.0, 8e6, 0.1)
            party.leave("bob")
            if mode == "unicast":
                # One pipeline per joiner (alice, bob, carol); bob's
                # went with him.
                assert len(opened) == 3
                kept = [sender for sender, _ in party._pipelines.values()]
                assert kept == [opened[0], opened[2]]
                assert party.receiver_names == ["alice", "carol"]
                continue
            assert opened == [party.sender], mode
            assert not party.closed
            party.close()
            party.close()  # idempotent: the registry may reap twice
            assert party.closed


def test_hosted_conference_memory_stays_bounded():
    """A live conference keeps no per-tick history: once warm, a second
    window of ticks retains (almost) nothing the package allocated on
    top of the first.  Only allocations made in the package's own files
    count, so numpy's small-buffer caches do not blur the figure."""
    config = SessionConfig(
        num_cameras=2, camera_width=32, camera_height=16,
        scene_sample_budget=1500, gop_size=8,
    )
    rig = default_rig(num_cameras=2, width=32, height=16)
    _, scene = load_video("pizza1", sample_budget=1500)
    views = [rig.capture(scene, index).views for index in range(4)]
    driver = ConferenceDriver(
        rig, config, DownlinkSet(constant_trace(8.0, duration_s=60.0), config.link)
    )
    for name in ("alice", "bob"):
        driver.join(name, still(POSES[name]))
    package = tracemalloc.Filter(True, os.path.join(os.path.dirname(repro.__file__), "*"))

    def tick(sequences):
        for sequence in sequences:
            frame = MultiViewFrame(views[sequence % 4], sequence=sequence)
            driver.tick(frame, sequence / 30.0, 2e6, 0.1)

    def held():
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces([package])
        return sum(stat.size for stat in snapshot.statistics("filename"))

    tick(range(50))  # warm: codec scratch, GCC state
    tracemalloc.start()
    try:
        start = held()
        tick(range(50, 300))
        first = held()
        tick(range(300, 550))
        second = held()
    finally:
        tracemalloc.stop()
    assert driver.frames_ticked == 550
    assert second - first < 4096, (first - start, second - first)


def test_conferences_hold_shared_tables_once():
    """N and 4N conferences ticked in lockstep over one shared capture:
    between ticks, the quantization scale memos (perf/scratch.py) and
    the per-pixel point grids (built in geometry/camera.py) are held
    once for the process, not once per conference, and everything a
    conference holds stays under 112 KiB.  Live bytes are traced to the
    innermost frame in the package's own files."""
    config = SessionConfig(
        num_cameras=2, camera_width=32, camera_height=16,
        scene_sample_budget=1500, gop_size=8,
    )
    rig = default_rig(num_cameras=2, width=32, height=16)
    _, scene = load_video("pizza1", sample_budget=1500)
    captures = [rig.capture(scene, index).views for index in range(4)]
    package = os.path.dirname(repro.__file__)
    plane = BatchPlane()

    def held_after_ticks(count: int) -> Counter:
        drivers = []
        for index in range(count):
            driver = ConferenceDriver(
                rig, config,
                DownlinkSet(constant_trace(8.0, duration_s=60.0), LinkConfig(seed=index)),
            )
            for name in ("alice", "bob"):
                driver.join(name, still(POSES[name]))
            drivers.append(driver)
        for sequence in range(10):
            frame = MultiViewFrame(captures[sequence % 4], sequence=sequence)
            plane.run_lockstep(
                [driver.tick_steps(frame, sequence / 30.0, 2e6, 0.1) for driver in drivers]
            )
        gc.collect()
        held = Counter()
        for trace in tracemalloc.take_snapshot().traces:
            for frame in reversed(trace.traceback):
                if frame.filename.startswith(package):
                    held[os.path.relpath(frame.filename, package)] += trace.size
                    break
        return held

    count = 2
    tracemalloc.start(8)
    try:
        few = held_after_ticks(count)
        many = held_after_ticks(4 * count)
    finally:
        tracemalloc.stop()

    def per_conference(*files) -> float:
        keys = files or set(few) | set(many)
        return sum(many[key] - few[key] for key in keys) / (3 * count)

    assert per_conference(os.path.join("perf", "scratch.py")) < 2048, (few, many)
    assert per_conference(os.path.join("geometry", "camera.py")) < 1024, (few, many)
    assert per_conference() < 112 * 1024, (few, many)
