"""Ratchet on the settable configuration surface.

Every field of a config dataclass is a knob someone must document,
validate and keep working.  The paper's fixed design constants are
module constants instead (``repro.core.config`` and the modules that
read them), so this pins the field names of each config class: adding a
knob means editing this list, and a removed knob stays removed.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.codec.video import VideoCodecConfig
from repro.compression.draco import DracoConfig
from repro.core.config import SessionConfig
from repro.faults.degradation import ResilienceConfig
from repro.service.app import ServiceConfig
from repro.service.loadgen import LoadgenConfig
from repro.sfu.fleet import FleetConfig
from repro.transport.channel import WebRTCConfig
from repro.transport.gcc import GCCConfig
from repro.transport.link import LinkConfig

FIELDS = {
    SessionConfig: (
        "num_cameras", "camera_width", "camera_height", "scene_sample_budget",
        "scheme", "split_step", "rmse_every_k", "gop_size", "link", "resilience",
        "quality_max_points", "trace", "quality_every", "trace_scale",
    ),
    VideoCodecConfig: ("gop_size", "weight_strength", "qp_max", "chroma_subsampling"),
    GCCConfig: ("initial_rate_bps", "min_rate_bps", "max_rate_bps"),
    WebRTCConfig: ("nack_retries", "fec_group_size"),
    LinkConfig: (
        "propagation_delay_s", "loss_rate", "seed", "receive_buffer_bytes",
        "receive_drain_rate_bps",
    ),
    ResilienceConfig: ("enabled", "ladder_enabled"),
    FleetConfig: ("sessions", "frames", "seed"),
    ServiceConfig: (
        "host", "port", "video", "num_cameras", "seed", "tick_interval_s",
        "max_clients_per_session", "max_sessions",
    ),
    LoadgenConfig: (
        "clients", "receivers_per_session", "duration_s", "slot_s", "seed", "kill_storms",
    ),
    DracoConfig: ("quantization_bits", "compression_level"),
}

# Knobs that became constants: each must stay impossible to pass.
REMOVED = {
    SessionConfig: (
        "fps", "split_initial", "split_min", "split_max", "split_epsilon",
        "max_depth_mm", "guard_band_m", "pose_feedback_lag_frames",
        "codec_search_range", "jitter_target_s", "playout_delay_s",
        "render_voxel_m", "codec_efficiency_compensation",
        # SchemeFlags went whole: the scheme is a name.
        "culling", "adaptation", "fixed_color_qp", "fixed_depth_qp",
    ),
    VideoCodecConfig: (
        "block_size", "effort", "search_range", "chroma_weight_strength", "chroma_qp_offset",
    ),
    GCCConfig: (
        "increase_factor", "decrease_factor", "gradient_threshold_s",
        "gradient_smoothing", "loss_decrease_threshold", "loss_increase_threshold",
        "receive_window_s",
    ),
    WebRTCConfig: (
        "mtu", "loss_detection_grace_s", "rtt_smoothing", "loss_window_s", "reverse_delay_s",
    ),
    LinkConfig: ("max_queue_delay_s",),
    FleetConfig: (
        "video", "num_cameras", "camera_width", "camera_height", "gop_size",
        "downlink_mbps", "target_rate_bps", "receivers", "churn_every", "sample_budget",
        "unicast_control",
    ),
    ServiceConfig: (
        "camera_width", "camera_height", "gop_size", "downlink_mbps", "sample_budget",
        "pose_trace_frames",
    ),
    LoadgenConfig: ("poll_every_slots", "kill_fraction"),
    ResilienceConfig: (
        "voxel_coarsen", "watchdog_misses", "recover_hysteresis", "max_level", "fps_divisor",
        "chroma_budget_scale",
    ),
}


@pytest.mark.parametrize("config_class", list(FIELDS), ids=lambda cls: cls.__name__)
def test_field_names_are_pinned(config_class):
    names = tuple(field.name for field in dataclasses.fields(config_class))
    assert names == FIELDS[config_class]


def test_settable_surface_total():
    assert sum(len(names) for names in FIELDS.values()) == 49


@pytest.mark.parametrize(
    "config_class,name",
    [(cls, name) for cls, names in REMOVED.items() for name in names],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_removed_field_is_a_type_error(config_class, name):
    with pytest.raises(TypeError, match=name):
        config_class(**{name: None})


def test_frame_clock_stays_readable():
    # Readers outside the package (benchmarks) use ``config.fps``.
    config = SessionConfig()
    assert (config.fps, config.frame_interval_s) == (30.0, 1.0 / 30.0)


def test_fleet_churn_period_stays_readable():
    # The benchmark worker reads ``config.churn_every``.
    from repro.sfu import fleet

    assert FleetConfig(sessions=1, frames=1).churn_every == fleet.CHURN_EVERY == 10
