"""The per-frame visibility table against the six-``Plane`` oracle.

``repro.geometry.frustum`` holds a frustum as one ``(6, 4)`` array and
``repro.prediction.culling.visibility`` tests all receivers against
all cameras in one pass; ``tests/reference/frustum.py`` keeps the scalar
chain both replaced.  Batched arithmetic may differ from the chain in
the last ulp of a plane coefficient and nowhere in a mask, except on a
plane's surface.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from repro.capture.rig import default_rig
from repro.core import multiway
from repro.core.multiway import cull_views_union
from repro.geometry.frustum import (
    ASPECT,
    FAR_M,
    NEAR_M,
    VERTICAL_FOV_DEG,
    Frustum,
    camera_planes,
    planes_contain,
    transform_planes,
    unit_planes,
)
from repro.geometry.transforms import euler_to_rotation
from repro.prediction import culling
from repro.prediction.predictor import ViewingDevice, guarded_planes
from repro.sfu.fleet import FleetConfig, run_fleet
from repro.sfu.node import SFUNode
from tests.reference.frustum import PlaneFrustum, inside_masks, kept_points

# A vectorised norm that meets a degenerate plane warns and carries on
# with NaN masks; in this module that is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DEVICE = ViewingDevice()
OPTICS = (VERTICAL_FOV_DEG, ASPECT, NEAR_M, FAR_M)
ULP = np.spacing(1.0)
# Pixels closer than this to a plane's surface may fall on either side.
SURFACE_M = 1e-9


def oracle_frustum(vector: np.ndarray, guard_band_m: float) -> PlaneFrustum:
    frustum = PlaneFrustum.from_camera(
        vector[:3], euler_to_rotation(*vector[3:]), *OPTICS
    )
    return frustum.expanded(guard_band_m) if guard_band_m > 0 else frustum


def random_case(seed: int, receivers: int, cameras: int, height: int, width: int):
    """A rig, pose vectors around it, and a depth stack with holes."""
    rng = np.random.default_rng(seed)
    rig = default_rig(num_cameras=cameras, width=width, height=height)
    vectors = np.concatenate(
        [rng.uniform(-3.0, 3.0, (receivers, 3)), rng.uniform(-np.pi, np.pi, (receivers, 3))],
        axis=1,
    )
    depths = rng.integers(250, 6000, (cameras, height, width)).astype(np.uint16)
    depths[rng.random(depths.shape) < 0.2] = 0
    return rig.cameras, vectors, depths


def assert_rows_close(rows: np.ndarray, oracle_rows: np.ndarray, reach_m: float) -> None:
    """Within 4 ulp: normals at unit scale, offsets at the scale of the
    terms summed into them (``reach_m``) -- a dot product's rounding
    error follows its largest term, not a result that cancelled."""
    assert np.abs(rows[..., :3] - oracle_rows[..., :3]).max() <= 4 * ULP
    assert np.abs(rows[..., 3] - oracle_rows[..., 3]).max() <= 4 * np.spacing(reach_m)


def assert_table_matches_oracle(cameras, vectors, depths, guard_band_m):
    planes = guarded_planes(DEVICE, guard_band_m, vectors)
    oracles = [oracle_frustum(vector, guard_band_m) for vector in vectors]
    reach_m = (
        np.abs(vectors[:, :3]).sum(axis=1).max()
        + max(np.abs(camera.extrinsics.world_to_camera[:3, 3]).sum() for camera in cameras)
        + FAR_M
        + guard_band_m
    )
    assert_rows_close(planes, np.array([o.rows() for o in oracles]), reach_m)

    inside = culling.visibility(cameras, list(depths), planes)
    assert inside.shape == (len(vectors), *depths.shape)
    expected = inside_masks(oracles, cameras, depths)
    for r, oracle in enumerate(oracles):
        for c, camera in enumerate(cameras):
            transform = camera.extrinsics.world_to_camera
            local = oracle.transformed(transform)
            assert_rows_close(transform_planes(planes[r], transform), local.rows(), reach_m)
            points, _ = camera.local_points(depths[c])
            distances = local.signed_distances(points.reshape(-1, 3))
            decided = (np.abs(distances) > SURFACE_M).all(axis=0).reshape(depths[c].shape)
            assert np.array_equal(inside[r, c][decided], expected[r, c][decided])

    # What the union cull keeps and what forward counts, from the table.
    valid = depths > 0
    union = inside.any(axis=0) & valid
    assert np.array_equal(union, np.logical_or.reduce(inside & valid, axis=0))
    assert not (inside & valid & ~union).any()
    union_depths = np.where(union, depths, 0)
    kept = (inside & (union_depths > 0)).reshape(len(vectors), -1).sum(axis=1)
    if np.array_equal(inside, expected):   # no pixel sat on a surface
        assert kept.tolist() == [
            kept_points(oracle, cameras, union_depths) for oracle in oracles
        ]
    return inside


class TestTableAgainstOracle:
    @given(
        seed=st.integers(0, 2**16),
        receivers=st.integers(1, 5),
        cameras=st.integers(1, 4),
        height=st.integers(1, 18),
        width=st.integers(1, 24),
        guard=st.sampled_from([0.0, 0.2]),
    )
    @example(seed=3, receivers=2, cameras=3, height=64, width=80, guard=0.2)
    @example(seed=5, receivers=1, cameras=1, height=1, width=1, guard=0.0)
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rows_and_masks(self, seed, receivers, cameras, height, width, guard):
        assert_table_matches_oracle(
            *random_case(seed, receivers, cameras, height, width), guard
        )

    def test_receiver_that_sees_nothing(self):
        cameras, vectors, depths = random_case(11, 3, 3, 18, 24)
        vectors[1, :3] = [80.0, 1.0, 80.0]   # far outside every far plane
        inside = assert_table_matches_oracle(cameras, vectors, depths, 0.2)
        assert not inside[1].any()
        assert inside[0].any() or inside[2].any()

    def test_camera_nobody_sees(self):
        """Every frustum misses one camera's points entirely: its rows
        are all False, the others unaffected by the kernel's early exit."""
        cameras, vectors, depths = random_case(12, 2, 3, 18, 24)
        # Both viewers stand mid-rig looking along +Z ...
        vectors[:, :3] = [[0.0, 1.2, 0.0], [0.2, 1.2, 0.0]]
        vectors[:, 3:] = 0.0
        # ... and camera 2 hangs behind them at z = -2.1, every pixel of
        # it 30 cm in front of its own lens.
        depths[2] = 300
        inside = assert_table_matches_oracle(cameras, vectors, depths, 0.0)
        assert not inside[:, 2].any()
        assert inside[:, :2].any()

    def test_nobody_sees_anything_exits_early(self, monkeypatch):
        cameras, vectors, depths = random_case(13, 2, 2, 6, 8)
        vectors[:, :3] += 500.0
        products = []
        matmul = np.matmul
        monkeypatch.setattr(
            np, "matmul", lambda *args, **kw: products.append(1) or matmul(*args, **kw)
        )
        planes = transform_planes(
            guarded_planes(DEVICE, 0.2, vectors)[:, None],
            np.stack([camera.extrinsics.world_to_camera for camera in cameras]),
        )
        products.clear()
        points = np.stack([c.local_points(d)[0] for c, d in zip(cameras, depths)])
        inside = planes_contain(planes, points.reshape(2, -1, 3))
        assert not inside.any()
        assert len(products) < 6

    def test_zero_depth_pixels_are_tested_not_dropped(self):
        """The table has no notion of validity: holes are the caller's mask."""
        cameras, vectors, depths = random_case(14, 2, 2, 9, 12)
        depths[:] = 0
        inside = assert_table_matches_oracle(cameras, vectors, depths, 0.2)
        assert inside.shape == (2, 2, 9, 12)


class TestFrustumArray:
    def test_rows_are_normalised_on_construction(self):
        frustum = Frustum.from_camera(np.zeros(3), np.eye(3))
        scaled = Frustum(frustum.array * np.arange(1.0, 7.0)[:, None])
        assert_rows_close(scaled.array, frustum.array, reach_m=10.0)

    def test_stack_matches_one_at_a_time(self):
        _, vectors, _ = random_case(21, 5, 1, 1, 1)
        stacked = guarded_planes(DEVICE, 0.2, vectors)
        for vector, rows in zip(vectors, stacked):
            assert np.array_equal(guarded_planes(DEVICE, 0.2, vector), rows)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: unit_planes(np.zeros((3, 6, 4))),
            lambda: Frustum(np.zeros((6, 4))),
            lambda: camera_planes(np.zeros(3), np.zeros((3, 3)), *OPTICS),
            lambda: transform_planes(
                camera_planes(np.zeros(3), np.eye(3), *OPTICS), np.zeros((4, 4))
            ),
        ],
        ids=["unit_planes", "Frustum", "camera_planes", "transform_planes"],
    )
    def test_degenerate_plane_is_a_value_error(self, build):
        # Not a RuntimeWarning and a frustum that silently contains nothing.
        with pytest.raises(ValueError, match="nonzero"):
            build()


def frame_from(depths: np.ndarray, sequence: int = 0) -> MultiViewFrame:
    color = np.full((*depths.shape[1:], 3), 200, dtype=np.uint8)
    return MultiViewFrame(
        [RGBDFrame(color, depth, camera_id=i, sequence=sequence)
         for i, depth in enumerate(depths)],
        sequence=sequence,
    )


class TestOneTablePerFrame:
    def test_union_cull_reads_the_table(self):
        cameras, vectors, depths = random_case(31, 3, 3, 18, 24)
        planes = guarded_planes(DEVICE, 0.2, vectors)
        frustums = [Frustum.of_unit_rows(rows) for rows in planes]
        culled, inside = cull_views_union(frame_from(depths), cameras, frustums)
        assert np.array_equal(inside, culling.visibility(cameras, list(depths), planes))
        union = inside.any(axis=0) & (depths > 0)
        for view, depth, keep in zip(culled.views, depths, union):
            assert np.array_equal(view.depth_mm, np.where(keep, depth, 0))
            assert np.array_equal(view.color[..., 0], np.where(keep, 200, 0))

    def test_fleet_builds_one_table_per_conference_frame(self, monkeypatch):
        """6 x 12 fleet: the union cull builds each conference-frame's
        table, forward only reads it.  The counts repeat exactly."""
        where = []
        tests = {"cull_union": 0, "forward": 0, "elsewhere": 0}
        calls = {"cull_union": 0, "forward": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                where.append(name)
                try:
                    return function(*args, **kwargs)
                finally:
                    where.pop()
            return wrapper

        def grid_test(*args, **kwargs):
            tests[where[-1] if where else "elsewhere"] += 1
            return planes_contain(*args, **kwargs)

        monkeypatch.setattr(culling, "planes_contain", grid_test)
        monkeypatch.setattr(
            multiway, "cull_views_union", counted("cull_union", cull_views_union)
        )
        monkeypatch.setattr(SFUNode, "forward", counted("forward", SFUNode.forward))
        result = run_fleet(FleetConfig(sessions=6, frames=12, seed=0))

        assert result.session_frames == 72
        assert calls == {"cull_union": 72, "forward": 72}
        assert tests["cull_union"] == 72
        assert tests["forward"] == 0
