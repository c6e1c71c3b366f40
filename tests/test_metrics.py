"""Tests for image RMSE, PointSSIM, the MOS model, and latency model."""

import numpy as np
import pytest

from repro.geometry.pointcloud import PointCloud
from repro.metrics.image import rmse
from repro.metrics.latency import LatencyBreakdown, latency_table
from repro.metrics.mos import CommentModel, MOSModel, SessionQoE
from repro.metrics.pointssim import pointssim


def surface_cloud(n=3000, noise=0.0, seed=0, color_noise=0.0):
    """Points on a sphere + plane with optional perturbation."""
    rng = np.random.default_rng(seed)
    half = n // 2
    directions = rng.normal(size=(half, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    sphere = directions * 0.8 + np.array([0, 1.2, 0])
    plane = np.stack(
        [rng.uniform(-2, 2, n - half), np.zeros(n - half), rng.uniform(-2, 2, n - half)],
        axis=1,
    )
    points = np.concatenate([sphere, plane])
    if noise > 0:
        points = points + rng.normal(0, noise, size=points.shape)
    base = np.tile(np.array([150, 90, 60], dtype=np.float64), (n, 1))
    base += 40 * np.sin(points[:, :1] * 3.0)
    if color_noise > 0:
        base += rng.normal(0, color_noise, size=base.shape)
    return PointCloud(points, np.clip(base, 0, 255).astype(np.uint8))


class TestImageMetrics:
    def test_rmse_zero_for_identical(self):
        image = np.arange(100.0).reshape(10, 10)
        assert rmse(image, image) == 0.0

    def test_rmse_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 3.0)
        assert rmse(a, b) == pytest.approx(3.0)

    def test_rmse_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((2, 2)), np.zeros((3, 3)))


class TestPointSSIM:
    def test_identical_clouds_score_100(self):
        cloud = surface_cloud()
        result = pointssim(cloud, cloud)
        assert result.geometry == pytest.approx(100.0, abs=0.5)
        assert result.color == pytest.approx(100.0, abs=0.5)

    def test_empty_distorted_scores_zero(self):
        result = pointssim(surface_cloud(), PointCloud())
        assert result.geometry == 0.0 and result.color == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            pointssim(PointCloud(), surface_cloud())

    def test_geometry_monotone_in_noise(self):
        reference = surface_cloud()
        scores = [
            pointssim(reference, surface_cloud(noise=noise, seed=1)).geometry
            for noise in (0.005, 0.03, 0.12)
        ]
        assert scores[0] > scores[1] > scores[2]

    def test_color_monotone_in_color_noise(self):
        reference = surface_cloud()
        scores = [
            pointssim(reference, surface_cloud(color_noise=noise, seed=1)).color
            for noise in (2.0, 20.0, 80.0)
        ]
        assert scores[0] > scores[1] > scores[2]

    def test_small_noise_still_high_80s(self):
        """Millimeter-scale geometric error should land 'good' (high 80s+).

        Perturbs the same sample so the measurement isolates distortion
        from resampling (as the voxelized receiver comparison does).
        """
        reference = surface_cloud()
        rng = np.random.default_rng(2)
        distorted = PointCloud(
            reference.positions + rng.normal(0, 0.004, reference.positions.shape),
            reference.colors.copy(),
        )
        assert pointssim(reference, distorted).geometry > 85.0

    def test_geometry_detects_rigid_shift(self):
        reference = surface_cloud()
        shifted = PointCloud(reference.positions + np.array([0.3, 0, 0]),
                             reference.colors.copy())
        assert pointssim(reference, shifted).geometry < 50.0

    def test_color_independent_of_geometry_noise_level(self):
        """Color score shouldn't collapse under mild geometric noise."""
        reference = surface_cloud()
        result = pointssim(reference, surface_cloud(noise=0.01, seed=3))
        assert result.color > 80.0


class TestMOSModel:
    def livo_qoe(self):
        return SessionQoE(88.0, 83.0, 0.017, 30.0)

    def test_paper_anchor_livo(self):
        mos = MOSModel().mean_opinion_score(self.livo_qoe())
        assert 3.7 <= mos <= 4.5  # paper: 4.1

    def test_paper_anchor_nocull(self):
        mos = MOSModel().mean_opinion_score(SessionQoE(81.0, 81.0, 0.079, 29.0))
        assert 3.0 <= mos <= 3.8  # paper: 3.4

    def test_paper_anchor_meshreduce(self):
        mos = MOSModel().mean_opinion_score(SessionQoE(67.0, 77.3, 0.0, 12.1))
        assert 2.0 <= mos <= 3.0  # paper: 2.5

    def test_paper_anchor_draco(self):
        mos = MOSModel().mean_opinion_score(SessionQoE(28.3, 29.9, 0.69, 15.0))
        assert mos <= 2.0  # paper: 1.5

    def test_ordering_matches_paper(self):
        model = MOSModel()
        livo = model.mean_opinion_score(self.livo_qoe())
        nocull = model.mean_opinion_score(SessionQoE(81.0, 81.0, 0.079, 29.0))
        mesh = model.mean_opinion_score(SessionQoE(67.0, 77.3, 0.0, 12.1))
        draco = model.mean_opinion_score(SessionQoE(28.3, 29.9, 0.69, 15.0))
        assert livo > nocull > mesh > draco

    def test_ratings_likert_and_centered(self):
        model = MOSModel()
        ratings = model.sample_ratings(self.livo_qoe(), num_raters=57, seed=1)
        assert len(ratings) == 57
        assert ratings.min() >= 1 and ratings.max() <= 5
        assert abs(ratings.mean() - model.mean_opinion_score(self.livo_qoe())) < 0.4

    def test_invalid_qoe(self):
        with pytest.raises(ValueError):
            SessionQoE(80, 80, 1.5, 30)
        with pytest.raises(ValueError):
            SessionQoE(80, 80, 0.1, -1)

    def test_invalid_raters(self):
        with pytest.raises(ValueError):
            MOSModel().sample_ratings(self.livo_qoe(), 0)


class TestCommentModel:
    def test_probabilities_sum_to_one(self):
        model = CommentModel()
        qoe = SessionQoE(70.0, 70.0, 0.1, 20.0)
        for probabilities in (
            model.frame_rate_probabilities(qoe),
            model.stall_probabilities(qoe),
            model.quality_probabilities(qoe),
        ):
            assert probabilities.sum() == pytest.approx(1.0)

    def test_livo_gets_high_frame_rate_comments(self):
        """Table 5: 100% of LiVo frame-rate comments are High."""
        probabilities = CommentModel().frame_rate_probabilities(
            SessionQoE(88, 83, 0.017, 30.0)
        )
        assert probabilities[2] > 0.8

    def test_draco_gets_high_stall_comments(self):
        probabilities = CommentModel().stall_probabilities(
            SessionQoE(28, 30, 0.69, 15.0)
        )
        assert probabilities[2] > 0.5

    def test_meshreduce_low_stall_comments(self):
        """Table 5: MeshReduce rated best on stalls (90.9% Low)."""
        probabilities = CommentModel().stall_probabilities(
            SessionQoE(67, 77, 0.0, 12.1)
        )
        assert probabilities[0] > 0.8

    def test_sample_comments_counts(self):
        counts = CommentModel().sample_comments(
            SessionQoE(88, 83, 0.017, 30.0), num_comments=40, seed=0
        )
        for category in ("frame_rate", "stalls", "quality"):
            assert counts[category].sum() == 40


class TestLatencyModel:
    def test_end_to_end_within_paper_budget(self):
        """Both schemes land in the 200-300 ms window (Table 6)."""
        for breakdown in latency_table().values():
            assert 200 <= breakdown.end_to_end_ms <= 300

    def test_sender_receiver_asymmetry(self):
        table = latency_table()
        livo, nocull = table["LiVo"], table["LiVo-NoCull"]
        # LiVo culls at the sender; NoCull pays at the receiver.
        assert livo.sender_ms > nocull.sender_ms
        assert livo.receiver_ms < nocull.receiver_ms

    def test_rendering_within_mtp(self):
        for breakdown in latency_table().values():
            assert breakdown.stages.rendering < 20.0  # MTP budget

    def test_measured_transmission_overrides_model(self):
        breakdown = LatencyBreakdown("LiVo", latency_table()["LiVo"].stages, 120.0)
        assert breakdown.transmission_ms == 120.0
        rows = dict(breakdown.rows())
        assert rows["transmission"] == 120.0

    def test_jitter_buffer_dominates_transmission(self):
        breakdown = latency_table()["LiVo"]
        assert breakdown.stages.transmission >= 100.0  # 100 ms jitter target
