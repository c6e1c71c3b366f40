"""Batch-plane parity: cross-session SoA kernels vs the serial schedule.

The batch plane's contract is byte-identity: every co-batched outcome
must equal what the per-session serial driver produces, from the
vectorized entropy bitfields up through whole-session reports and
fleet digests.  These tests pin that contract at every layer, plus the
bucketing rules (heterogeneous shapes/QPs never co-batch) and the
failure semantics (a faulted job re-raises in its owning generator).
"""

import tracemalloc

import numpy as np
import pytest

from repro.capture.dataset import load_video
from repro.codec.entropy import (
    _pack_bitfields,
    _unpack_bitfields,
    decode_levels,
    encode_levels,
    encode_levels_batch,
)
from repro.codec.video import VideoCodecConfig, VideoDecoder, VideoEncoder
from repro.core.config import SessionConfig
from repro.core.session import LiVoSession
from repro.faults.plan import EncoderFault, FaultPlan, FrameCorruption
from repro.prediction.pose import user_traces_for_video
from repro.runtime import batchplane
from repro.runtime.batchplane import (
    KERNELS,
    BatchPlane,
    drive_serial,
    entropy_encode_request,
    motion_request,
    plane_transform_request,
    resolve_single,
)
from repro.sfu.fleet import FleetConfig, run_fleet
from repro.transport.traces import trace_1
from tests.reference.bitfields import (
    pack_bitfields_scalar as _pack_bitfields_scalar,
    unpack_bitfields_scalar as _unpack_bitfields_scalar,
)
from tests.twins import assert_pinned


# ----------------------------------------------------------------------
# Vectorized entropy coder vs the scalar bit-plane loops
# ----------------------------------------------------------------------


class TestEntropyVectorized:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pack_unpack_match_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        lengths = rng.integers(1, 65, size=n).astype(np.int64)
        codes = np.array(
            [rng.integers(0, 1 << int(l), dtype=np.uint64) for l in lengths],
            dtype=np.uint64,
        )
        packed = _pack_bitfields(codes, lengths)
        assert packed == _pack_bitfields_scalar(codes, lengths)
        unpacked = _unpack_bitfields(packed, lengths)
        assert np.array_equal(unpacked, _unpack_bitfields_scalar(packed, lengths))
        assert np.array_equal(unpacked, codes)

    def test_64_bit_edge_codewords(self):
        # Full-width codewords: max uint64, a lone top bit, and a value
        # just below 2**63 -- the cases where a wrong shift or a
        # float-log2 bit length silently corrupts the mantissa.
        codes = np.array(
            [np.uint64(2**64 - 1), np.uint64(1) << np.uint64(63), np.uint64(2**63 - 1), np.uint64(1)],
            dtype=np.uint64,
        )
        lengths = np.array([64, 64, 63, 1], dtype=np.int64)
        packed = _pack_bitfields(codes, lengths)
        assert packed == _pack_bitfields_scalar(codes, lengths)
        assert np.array_equal(_unpack_bitfields(packed, lengths), codes)

    def test_empty_inputs(self):
        empty = np.zeros(0, dtype=np.uint64)
        lengths = np.zeros(0, dtype=np.int64)
        assert _pack_bitfields(empty, lengths) == b""
        assert len(_unpack_bitfields(b"", lengths)) == 0

    def test_encode_decode_levels_roundtrip(self):
        rng = np.random.default_rng(7)
        levels = rng.integers(-300, 300, size=(12, 8, 8)).astype(np.int32)
        assert np.array_equal(decode_levels(encode_levels(levels)), levels)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_encode_levels_batch_byte_identical_per_stack(self, seed):
        rng = np.random.default_rng(seed)
        stacks = np.where(
            rng.random(size=(6, 9, 8, 8)) < 0.3,
            rng.integers(-2000, 2000, size=(6, 9, 8, 8)),
            0,
        ).astype(np.int32)
        stacks[2] = 0  # one all-zero stack hits the empty-nonzero branch
        payloads = encode_levels_batch(stacks, effort=6)
        assert payloads == [encode_levels(stack, effort=6) for stack in stacks]
        for payload, stack in zip(payloads, stacks):
            assert np.array_equal(decode_levels(payload), stack)


# ----------------------------------------------------------------------
# Kernel-level parity: single vs batched execution
# ----------------------------------------------------------------------


class TestKernelParity:
    def test_plane_transform_batched_matches_single(self):
        rng = np.random.default_rng(3)
        weights = np.abs(rng.normal(1.0, 0.2, size=(8, 8))) + 0.5
        # Varying block counts within one bucket (shape key omits N).
        requests = [
            plane_transform_request(
                rng.normal(0, 40, size=(n, 8, 8)), qp=24, weights=weights, block_size=8
            )
            for n in (3, 7, 1, 12)
        ]
        singles = [resolve_single(request) for request in requests]
        batched = KERNELS["plane_transform"].batched(requests)
        for (s_levels, s_delta), (b_levels, b_delta) in zip(singles, batched):
            assert np.array_equal(s_levels, b_levels)
            assert np.array_equal(s_delta, b_delta)

    def test_motion_batched_matches_single(self):
        rng = np.random.default_rng(4)
        requests = []
        for _ in range(5):
            reference = rng.integers(0, 255, size=(24, 32)).astype(np.float64)
            plane = np.roll(reference, shift=int(rng.integers(-1, 2)), axis=1)
            requests.append(
                motion_request(plane, reference, search_range=1, block_size=8)
            )
        singles = [resolve_single(request) for request in requests]
        batched = KERNELS["motion"].batched(requests)
        for (s_mv, s_pred), (b_mv, b_pred) in zip(singles, batched):
            assert np.array_equal(s_mv, b_mv)
            assert np.array_equal(s_pred, b_pred)

    def test_entropy_encode_batched_matches_single(self):
        rng = np.random.default_rng(6)
        requests = [
            entropy_encode_request(
                np.where(
                    rng.random(size=(9, 8, 8)) < 0.25,
                    rng.integers(-500, 500, size=(9, 8, 8)),
                    0,
                ).astype(np.int32),
                effort=6,
            )
            for _ in range(5)
        ]
        singles = [resolve_single(request) for request in requests]
        batched = KERNELS["entropy_encode"].batched(requests)
        assert batched == singles


# ----------------------------------------------------------------------
# Bucketing rules: only equal-shape/QP work co-batches
# ----------------------------------------------------------------------


def _one_shot(request):
    """A generator that yields one request and returns its result."""
    (result,) = yield [request]
    return result


def _catching(request):
    """Like :func:`_one_shot`, but returns ``"caught"`` if the job fails."""
    try:
        (result,) = yield [request]
    except Exception:
        return "caught"
    return result


class TestBucketing:
    def test_heterogeneous_shapes_and_qps_never_co_batch(self):
        rng = np.random.default_rng(6)
        # Mixed resolutions for motion, mixed QPs for transforms: every
        # bucket must stay a singleton (scalar path, zero batched items).
        generators = [
            _one_shot(
                motion_request(
                    rng.normal(size=(16, 16)), rng.normal(size=(16, 16)), 1, 8
                )
            ),
            _one_shot(
                motion_request(
                    rng.normal(size=(24, 32)), rng.normal(size=(24, 32)), 1, 8
                )
            ),
            _one_shot(
                plane_transform_request(rng.normal(size=(4, 8, 8)), 20, None, 8)
            ),
            _one_shot(
                plane_transform_request(rng.normal(size=(4, 8, 8)), 30, None, 8)
            ),
        ]
        plane = BatchPlane()
        plane.run_lockstep(generators)
        for counters in plane.counters.values():
            assert counters.batched_items == 0
        assert (
            plane.counters["motion"].scalar_items
            + plane.counters["plane_transform"].scalar_items
            == 4
        )

    def test_homogeneous_work_co_batches_and_matches_serial(self):
        rng = np.random.default_rng(8)
        residuals = [rng.normal(0, 30, size=(6, 8, 8)) for _ in range(4)]
        serial = [
            drive_serial(_one_shot(plane_transform_request(r, 22, None, 8)))
            for r in residuals
        ]
        plane = BatchPlane()
        outcome = plane.run_lockstep(
            [_one_shot(plane_transform_request(r, 22, None, 8)) for r in residuals]
        )
        assert plane.counters["plane_transform"].batched_items == 4
        assert plane.counters["plane_transform"].batches == 1
        for (s_levels, s_delta), (b_levels, b_delta) in zip(serial, outcome.values):
            assert np.array_equal(s_levels, b_levels)
            assert np.array_equal(s_delta, b_delta)

    def test_failed_job_raises_in_owning_generator_only(self):
        rng = np.random.default_rng(9)
        # A payload the blockwise DCT cannot transform (wrong rank): both
        # the batched call and the scalar fallback fail, so the error
        # lands in its generator.
        bad = _catching(plane_transform_request(np.zeros(3), 22, None, 8))
        good = _one_shot(
            plane_transform_request(rng.normal(size=(2, 8, 8)), 22, None, 8)
        )
        plane = BatchPlane()
        outcome = plane.run_lockstep([bad, good])
        assert outcome.values[0] == "caught"
        levels, delta = outcome.values[1]
        assert levels.shape[0] == 2 and delta.shape[0] == 2

    def test_fallback_bucket_counts_its_items_as_scalar(self):
        class _Poisoned(type(KERNELS["plane_transform"])):
            def batched(self, requests):
                raise RuntimeError("poisoned bucket")

        rng = np.random.default_rng(10)
        requests = [
            plane_transform_request(rng.normal(size=(2, 8, 8)), 22, None, 8)
            for _ in range(2)
        ]
        plane = BatchPlane()
        plane.kernels["plane_transform"] = _Poisoned()
        outcome = plane.run_lockstep([_one_shot(request) for request in requests])
        counters = plane.counters["plane_transform"]
        assert (counters.batched_items, counters.scalar_items, counters.batches) == (0, 2, 0)
        for request, (levels, delta) in zip(requests, outcome.values):
            s_levels, s_delta = resolve_single(request)
            assert np.array_equal(levels, s_levels) and np.array_equal(delta, s_delta)


# ----------------------------------------------------------------------
# Cohorts: run_lockstep drives at most LOCKSTEP_COHORT generators at once
# ----------------------------------------------------------------------


def _holding(seed):
    """Hold 64 KiB across a yield, as a session holds its frame state."""
    held = np.full(8192, float(seed))
    residual = np.random.default_rng(seed).normal(0, 30, size=(4, 8, 8))
    ((levels, _),) = yield [plane_transform_request(residual, 22, None, 8)]
    return float(held[0] + levels[0, 0, 0])


class TestCohorts:
    def test_failure_in_second_cohort_lands_in_its_owner_only(self):
        cohort = batchplane.LOCKSTEP_COHORT
        count, bad = cohort + 3, cohort + 1
        rng = np.random.default_rng(11)
        requests = [
            plane_transform_request(rng.normal(0, 30, size=(3, 8, 8)), 22, None, 8)
            for _ in range(count)
        ]
        # Wrong rank for the blockwise DCT: batched and scalar paths fail.
        requests[bad] = plane_transform_request(np.zeros(3), 22, None, 8)
        plane = BatchPlane()
        outcome = plane.run_lockstep([_catching(request) for request in requests])
        assert len(outcome.values) == len(outcome.elapsed) == count
        assert outcome.rounds == 2
        assert outcome.values[bad] == "caught"
        for index, request in enumerate(requests):
            if index == bad:
                continue
            s_levels, s_delta = drive_serial(_catching(request))
            levels, delta = outcome.values[index]
            assert np.array_equal(levels, s_levels) and np.array_equal(delta, s_delta)
        # The first cohort's bucket ran stacked; the poisoned second one
        # fell back to the scalar path item by item.
        counters = plane.counters["plane_transform"]
        assert (counters.batches, counters.batched_items, counters.scalar_items) == (1, cohort, 3)

    def test_peak_memory_bounded_by_the_cohort(self):
        cohort = batchplane.LOCKSTEP_COHORT

        def peak(count):
            generators = [_holding(seed) for seed in range(count)]
            tracemalloc.start()
            try:
                BatchPlane().run_lockstep(generators)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * cohort) <= 1.25 * peak(cohort)


# ----------------------------------------------------------------------
# Encoder-level lockstep parity (INTRA, INTER, rate-control retries)
# ----------------------------------------------------------------------


class TestEncoderLockstepParity:
    def _frames(self, seed, count=5, height=32, width=32):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 255, size=(height, width, 3)).astype(np.uint8)
        frames = []
        for index in range(count):
            drifted = np.roll(base, shift=index, axis=1).astype(np.int16)
            noisy = np.clip(
                drifted + rng.integers(-6, 7, size=drifted.shape), 0, 255
            )
            frames.append(noisy.astype(np.uint8))
        return frames

    def test_lockstep_streams_byte_identical_to_serial(self):
        config = VideoCodecConfig(gop_size=4)
        streams = [self._frames(seed) for seed in (11, 12)]
        serial_payloads = [[], []]
        serial_counters = []
        for index, frames in enumerate(streams):
            encoder = VideoEncoder(VideoCodecConfig(gop_size=4))
            for frame in frames:
                encoded, _ = encoder.encode(frame, qp=26)
                serial_payloads[index].append(encoded.payload)
            serial_counters.append(encoder.cache_counters.to_dict())

        encoders = [VideoEncoder(config), VideoEncoder(VideoCodecConfig(gop_size=4))]
        plane = BatchPlane()
        for tick in range(len(streams[0])):
            outcome = plane.run_lockstep(
                [
                    encoders[index].encode_steps(streams[index][tick], qp=26)
                    for index in range(2)
                ]
            )
            for index, encoded in enumerate(outcome.values):
                assert encoded.payload == serial_payloads[index][tick], (
                    f"stream {index} tick {tick} diverged under lockstep"
                )
        # Frames 1+ are INTER: motion jobs must actually have co-batched.
        assert plane.counters["motion"].batched_items > 0
        assert plane.counters["plane_transform"].batched_items > 0
        # Bucketed jobs still touch their own stream's scratch arena, so
        # its counters do not depend on the schedule.
        assert [e.cache_counters.to_dict() for e in encoders] == serial_counters

    def test_encode_to_target_retry_parity(self):
        frames = self._frames(13, count=4)
        serial = VideoEncoder(VideoCodecConfig(gop_size=4))
        serial_payloads = [
            serial.encode_to_target(frame, target_bytes=700)[0].payload
            for frame in frames
        ]
        lockstep = VideoEncoder(VideoCodecConfig(gop_size=4))
        plane = BatchPlane()
        decoder = VideoDecoder(VideoCodecConfig(gop_size=4))
        for tick, frame in enumerate(frames):
            encoded = plane.run(
                lockstep.encode_to_target_steps(frame, target_bytes=700)
            )
            assert encoded.payload == serial_payloads[tick]
            # The advertised reconstruction stays bit-exact decodable.
            assert np.array_equal(
                decoder.to_image(decoder.decode(encoded)), lockstep.last_reconstruction
            )


# ----------------------------------------------------------------------
# Whole-session pins: the session's serial encode schedule reproduces
# what the pre-plane per-stream encode produced (tests/twins.py)
# ----------------------------------------------------------------------


class TestSessionParity:
    CONFIG = dict(
        num_cameras=4, camera_width=32, camera_height=24,
        scene_sample_budget=3000, gop_size=4, quality_every=2,
    )
    FRAMES = 4

    @pytest.fixture(scope="class")
    def workload(self):
        _, scene = load_video("office1", sample_budget=3000)
        user = user_traces_for_video("office1", self.FRAMES + 10)[0]
        return scene, user

    @pytest.mark.parametrize(
        "executor,jobs",
        [("serial", 1), ("thread", 2), ("thread", 3)],
    )
    def test_batch_plane_report_identical_across_executors(
        self, workload, executor, jobs, oracle_transform
    ):
        scene, user = workload
        report = LiVoSession(
            SessionConfig(**self.CONFIG, executor=executor, jobs=jobs)
        ).run(scene, user, trace_1(duration_s=5), self.FRAMES)
        assert_pinned("batchplane:session", report.asdict())

    def test_faulted_session_parity(self, workload, oracle_transform):
        scene, user = workload
        plan = FaultPlan(
            encoder_faults=(EncoderFault(1),),
            corrupted_frames=(FrameCorruption(2),),
        )
        report = LiVoSession(SessionConfig(**self.CONFIG)).run(
            scene, user, trace_1(duration_s=5), self.FRAMES, fault_plan=plan
        )
        assert_pinned("batchplane:session_faulted", report.asdict())


# ----------------------------------------------------------------------
# Fleet pins: lockstep cross-session batching reproduces what the
# per-session loop produced
# ----------------------------------------------------------------------


def _parity_fleet(fleet_shape):
    fleet_shape(receivers=2, churn_every=2, sample_budget=2000, unicast_control=1)
    return run_fleet(FleetConfig(sessions=3, frames=6))


FLEET_PINS = {
    "batchplane:fleet_session_digests": lambda fleet: fleet.session_digests,
    "batchplane:fleet_accounting": lambda fleet: [
        fleet.sfu_uplink_bytes_per_frame,
        fleet.sfu_downlink_bytes_per_frame,
        fleet.churn_events,
        fleet.mean_receivers,
    ],
    # The control group's own churned schedule and byte accounting
    # (recorded from the MultiwaySender-based control it replaced).
    "batchplane:fleet_unicast_control": lambda fleet: [
        fleet.unicast_uplink_bytes_per_frame,
        fleet.uplink_savings,
    ],
}


class TestFleetParity:
    @pytest.fixture
    def fleet(self, oracle_transform, fleet_shape):
        return _parity_fleet(fleet_shape)

    def test_session_digests_identical(self, fleet):
        name = "batchplane:fleet_session_digests"
        assert_pinned(name, FLEET_PINS[name](fleet))

    def test_byte_and_churn_accounting_identical(self, fleet):
        name = "batchplane:fleet_accounting"
        assert_pinned(name, FLEET_PINS[name](fleet))

    def test_unicast_control_identical(self, fleet):
        name = "batchplane:fleet_unicast_control"
        assert_pinned(name, FLEET_PINS[name](fleet))

    @pytest.mark.parametrize("cohort", [1, 2, 4])
    def test_pins_hold_across_cohort_boundaries(
        self, cohort, monkeypatch, oracle_transform, fleet_shape
    ):
        # The pinned fleet fits one default cohort; these sizes split it.
        monkeypatch.setattr(batchplane, "LOCKSTEP_COHORT", cohort)
        fleet = _parity_fleet(fleet_shape)
        for name, pinned_value in FLEET_PINS.items():
            assert_pinned(name, pinned_value(fleet))

    def test_lockstep_actually_batched_across_sessions(self, fleet):
        stats = fleet.batch_plane_stats
        assert stats["plane_transform"]["hits"] > 0
        assert stats["motion"]["hits"] > 0
        assert stats["entropy_encode"]["hits"] > 0
        # Cross-session co-batching: average bucket width exceeds one
        # session's own jobs-per-round, i.e. > 1 item per batch.
        assert stats["plane_transform"]["hits"] > stats["plane_transform"]["batches"]

    def test_cache_stats_reported_once_fleet_wide(self, fleet):
        assert set(fleet.cache_stats) >= {
            "codec_scratch", "cull_projection", "capture_projection",
        }
        assert fleet.cache_stats["codec_scratch"]["hits"] > 0
