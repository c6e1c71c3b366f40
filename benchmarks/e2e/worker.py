"""One measured run of one workload, in its own process.

``run.py`` starts this file once per run so that every measurement has
a fresh interpreter, its own peak RSS, and an idle parent.  The program
is driven **from outside** through four entry points only --
``LiVoSession.run``, ``sfu.fleet.run_fleet``, ``ServiceHandle`` +
``JsonClient`` (via :mod:`loadgen_open`) and ``build_schedule`` -- and
everything reported comes from their public results.

Prints one JSON object on the last line of stdout::

    {"workload", "seed", "setup_s", "setup_in_call_s", "timed_wall_s",
     "ops", "attempted", "failed", "failures": {...}, "checks": {...},
     "digest", "metrics": {...}, "layers": {...}, "host": {...}}

``--setup-only`` stops at the start of the timed region and reports
just ``setup_s`` (run.py takes the median over several set-ups).
"""

from __future__ import annotations

import time

_ENTERED = time.monotonic()  # before the program's imports, on purpose

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("call", "call_eval", "fleet", "service_churn")

# Work per second of ``--seconds`` on the reference host (README): the
# amount of work is a function of the arguments only, never of how fast
# this commit happens to be, so outputs are reproducible and two
# commits are compared on identical work.
CALL_FRAMES_PER_S = 7.5
FLEET_SESSIONS = 100
FLEET_FRAMES_PER_S = 1.5
CHURN_CLIENTS_PER_S = 80
CHURN_RECEIVERS = 16
CHURN_SLOT_S = 0.1

# Seeded +-3 % per-sample capacity dither: every seed gives a different
# link (outputs diverge from frame 0) without changing the trace's
# shape.  Re-seeding trace_2 itself draws deep fades on about one seed
# in six, which stalls frames (failed operations) and moves frames/s by
# more than 10 % -- README, "Seeds".
DITHER = 0.03

# Quality floors for ``correct``: mean PointSSIM of the rendered view
# against ground truth.  Seeds 0..9 give 98.7-99.8 (geometry) and
# 97.6-99.7 (color) at full size, 97.8 / 97.6 at smoke size; a stalled
# frame scores 0, so one stall in fifty scored frames costs 2 points.
PSSIM_FLOOR = {"pssim_geometry": 96.5, "pssim_color": 96.0}


def sizes(workload: str, seconds: float, smoke: bool) -> dict:
    """How much work one run does."""
    if workload in ("call", "call_eval"):
        return {"frames": 12 if smoke else max(12, round(CALL_FRAMES_PER_S * seconds))}
    if workload == "fleet":
        if smoke:
            return {"sessions": 8, "frames": 6}
        return {"sessions": FLEET_SESSIONS, "frames": max(6, round(FLEET_FRAMES_PER_S * seconds))}
    if smoke:
        return {"duration_s": 3.0, "clients": 120}
    return {"duration_s": float(seconds), "clients": max(32, round(CHURN_CLIENTS_PER_S * seconds))}


class _Run:
    """Arguments and set-up clock shared by the four workloads."""

    def __init__(self, args) -> None:
        self.args = args
        self.setup_s = 0.0           # process start -> start of the timed region
        self.setup_in_call_s = 0.0   # set-up the entry point does inside its call

    def ready(self) -> None:
        """End of set-up: everything after this is the timed region."""
        started = _ENTERED if self.args.spawned_at is None else self.args.spawned_at
        self.setup_s = time.monotonic() - started
        if self.args.setup_only:
            raise _SetupOnly


class _SetupOnly(Exception):
    pass


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cache(stats: dict, name: str) -> dict:
    return (stats or {}).get(name, {})


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


# ----------------------------------------------------------------------
# call / call_eval
# ----------------------------------------------------------------------

CALLS = {
    # The conferencing hot path with evaluation excluded: PointSSIM
    # scores frame 0 only.
    "call": {"video": "band2", "trace": "trace_1", "quality_every": 10**9},
    # The driver as the paper's figures run it: one fast mover, the
    # tighter trace, every third rendered frame scored.
    "call_eval": {"video": "dance5", "trace": "trace_2", "quality_every": 3},
}


def run_call(run: _Run, workload: str) -> dict:
    import numpy as np

    import repro.core.session as session_module
    from repro.capture.dataset import load_video
    from repro.core.config import SessionConfig
    from repro.prediction.pose import user_traces_for_video
    from repro.scenario.invariants import check_report
    from repro.transport import traces
    from repro.transport.link import LinkConfig

    spec = CALLS[workload]
    seed = run.args.seed
    frames = sizes(workload, run.args.seconds, run.args.smoke)["frames"]
    config = SessionConfig(
        quality_every=spec["quality_every"], jobs=1, executor="serial",
        link=LinkConfig(seed=seed),
    )
    _, scene = load_video(spec["video"], sample_budget=config.scene_sample_budget)
    user = user_traces_for_video(spec["video"], frames + 10)[0]
    base = getattr(traces, spec["trace"])(duration_s=frames / config.fps + 10.0)
    dither = 1.0 + DITHER * np.random.default_rng(seed).uniform(-1.0, 1.0, len(base.capacities_mbps))
    trace = traces.BandwidthTrace(base.capacities_mbps * dither, base.interval_s, base.name)
    session = session_module.LiVoSession(config)
    run.ready()

    start = time.perf_counter()
    report = session.run(scene, user, trace, frames, video_name=spec["video"])
    wall = time.perf_counter() - start

    violations = check_report(report)
    late = sum(
        1 for f in report.frames
        if not f.rendered or f.stalled or f.skipped or f.frozen or f.empty
    )
    _, delivery_p50, _ = report.latency_stats()
    # Wall of one frame: the sum over the stages that ran once per frame
    # (capture, prepare, encode, decode today; quality runs on a subset).
    per_frame = [t.samples for t in (report.stage_timings or {}).values() if t.count == frames]
    tick_ms = sorted(1e3 * sum(parts) for parts in zip(*per_frame))
    metrics = {
        "frames_per_s": frames / wall,
        "session_frames_per_s": frames / wall,   # one session: the same number
        "tick_ms_p50": tick_ms[len(tick_ms) // 2] if tick_ms else 0.0,
        "delivery_ms_p50": delivery_p50 * 1e3,
        "pssim_geometry": report.pssim_geometry()[0],
        "pssim_color": report.pssim_color()[0],
    }
    checks = {
        "invariants_hold": not violations,
        "frame_count": report.num_frames == frames,
        "delivery_measured": math.isfinite(delivery_p50),
        "timings_cover_frames": len(tick_ms) == frames,
    }
    for name, floor in PSSIM_FLOOR.items():
        checks[f"{name}_floor"] = metrics[name] >= floor
    if workload == "call":
        checks["all_rendered"] = report.rendered_frames == frames

    def extras() -> dict:
        cache = report.cache_stats or {}
        transport = _cache(cache, "transport_batch")
        packets = transport.get("hits", 0) + transport.get("misses", 0)
        registry = report.metrics.to_dict() if report.metrics else {}
        plane = {k.removeprefix("batchplane_"): v for k, v in cache.items() if k.startswith("batchplane_")}
        return {
            "capture.cache_hit_rate": _cache(cache, "capture_projection").get("hit_rate", 0.0),
            "codec.scratch_hit_rate": _cache(cache, "codec_scratch").get("hit_rate", 0.0),
            "codec.bytes_per_frame": _ratio(sum(f.wire_bytes for f in report.frames), frames),
            "core.sender.culled_fraction": report.mean_culled_fraction,
            "transport.channel.packets_per_frame": _ratio(packets, frames),
            "transport.channel.batched_fraction": _ratio(transport.get("hits", 0), packets),
            "transport.channel.frames_lost": registry.get("transport.frames_lost", {}).get("value", 0),
            **_batchplane_extras(plane, frames),
        }

    return {
        "ops": frames,
        "timed_wall_s": wall,
        "attempted": frames,
        "failed": late + len(violations),
        "failures": {"frames_late": late, "invariant_violations": violations[:5]},
        "checks": checks,
        "digest": _sha(report.asdict()),
        "metrics": metrics,
        "extras": extras,
    }


def _batchplane_extras(kinds: dict, ops: int, rounds: int | None = None) -> dict:
    """Bucket statistics from the batch plane's per-kind tallies.

    ``hits`` are jobs that ran stacked, ``misses`` jobs that ran alone,
    ``batches`` the stacked calls: a scalar job is a bucket of one.
    """
    jobs = sum(v.get("hits", 0) + v.get("misses", 0) for v in kinds.values() if isinstance(v, dict))
    buckets = sum(v.get("batches", 0) + v.get("misses", 0) for v in kinds.values() if isinstance(v, dict))
    out = {"runtime.batchplane.mean_bucket_size": _ratio(jobs, buckets)}
    if rounds is not None:
        out["runtime.batchplane.rounds_per_op"] = _ratio(rounds, ops)
    return out


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------


def run_fleet(run: _Run, workload: str) -> dict:
    import repro.sfu.fleet as fleet_module

    size = sizes(workload, run.args.seconds, run.args.smoke)
    config = fleet_module.FleetConfig(
        sessions=size["sessions"], frames=size["frames"], seed=run.args.seed
    )
    run.ready()

    start = time.perf_counter()
    result = fleet_module.run_fleet(config)
    wall = time.perf_counter() - start

    control_s = result.control_wall_per_frame_ms * result.control_sessions * config.frames / 1e3
    # run_fleet builds its scene, rig and conferences itself and times
    # only the ticking; what is left of the call is set-up too, so work
    # moved from ticking into construction shows up here.
    run.setup_in_call_s = max(0.0, wall - result.wall_s - control_s)

    wanted = config.sessions * config.frames
    dropped = result.sfu_metrics.get("sfu.downlink.packets_dropped", {}).get("value", 0)
    metrics = {
        "session_frames_per_s": result.session_frames_per_s,
        "tick_ms_p50": result.latency_ms_p50,
    }
    checks = {
        "every_session_digested": len(result.session_digests) == config.sessions,
        "sfu_uplink_below_unicast": result.uplink_savings > 0.0,
        "churned": result.churn_events > 0 or config.frames <= config.churn_every,
    }

    def extras() -> dict:
        plane = result.batch_plane_stats
        sent = result.sfu_metrics.get("sfu.downlink.packets_sent", {}).get("value", 0)
        return {
            "capture.cache_hit_rate": _cache(result.cache_stats, "capture_projection").get("hit_rate", 0.0),
            "codec.scratch_hit_rate": _cache(result.cache_stats, "codec_scratch").get("hit_rate", 0.0),
            "codec.bytes_per_frame": result.sfu_uplink_bytes_per_frame,
            "sfu.fleet.tick_ms_p99": result.latency_ms_p99,
            "sfu.fleet.unicast_control_s": control_s,
            "sfu.fleet.uplink_savings": result.uplink_savings,
            "sfu.node.cull_cache_hit_rate": _cache(result.cache_stats, "cull_projection").get("hit_rate", 0.0),
            "transport.downlink.packets_per_op": _ratio(sent, wanted),
            "transport.downlink.drop_share": _ratio(dropped, sent),
            **_batchplane_extras(plane, wanted, plane.get("rounds")),
        }

    return {
        "ops": wanted,
        "timed_wall_s": wall,
        "attempted": wanted,
        "failed": (wanted - result.session_frames) + dropped,
        "failures": {
            "session_frames_not_ticked": wanted - result.session_frames,
            "downlink_packets_dropped": dropped,
        },
        "checks": checks,
        "digest": result.fleet_digest,
        "metrics": metrics,
        "extras": extras,
    }


# ----------------------------------------------------------------------
# service_churn
# ----------------------------------------------------------------------


def run_service_churn(run: _Run, workload: str) -> dict:
    import asyncio

    import loadgen_open
    import repro.service.app as app_module
    from repro.service.loadgen import LoadgenConfig, build_schedule

    size = sizes(workload, run.args.seconds, run.args.smoke)
    seed = run.args.seed
    schedule = build_schedule(
        LoadgenConfig(
            clients=size["clients"], receivers_per_session=CHURN_RECEIVERS,
            duration_s=size["duration_s"], slot_s=CHURN_SLOT_S, kill_storms=1, seed=seed,
        )
    )
    sessions = sum(op["op"] == "create" for slot in schedule for op in slot)
    shm_before = loadgen_open.count_shm_segments()
    handle = app_module.ServiceHandle(app_module.ServiceConfig(seed=seed)).start()
    try:
        run.ready()
        start = time.perf_counter()
        outcome = asyncio.run(
            loadgen_open.drive(handle.host, handle.port, schedule, CHURN_SLOT_S)
        )
        wall = time.perf_counter() - start
    finally:
        handle.stop()
    leaked_drivers = handle.app.registry.live_drivers()
    shm_after = loadgen_open.count_shm_segments()
    leaked_shm = max(0, shm_after - shm_before) if shm_before >= 0 else 0

    served = outcome.metrics_at_end
    tick = served.get("service.tick_ms", {})
    ticks = served.get("service.ticks", {}).get("value", 0)
    sessions_failed = served.get("service.sessions.failed", {}).get("value", 0)
    latencies = [ms for _, ms, _ in outcome.requests]
    metrics = {
        "session_frames_per_s": ticks / outcome.paced_wall_s,
        "tick_ms_p50": tick.get("p50", 0.0),
        "req_ms_p50": _percentile(latencies, 50),
        "req_ms_p95": _percentile(latencies, 95),
    }
    still_up = {k: v for k, v in outcome.final_counts.items() if k != "dead" and v}
    checks = {
        "sessions_all_created": outcome.sessions_created == sessions,
        "no_session_left_up": not still_up,
        "service_ticked": ticks > 0,
    }

    def extras() -> dict:
        rounds = outcome.health_at_end.get("worker_rounds", 0)
        by_op = {
            f"service.req_ms_p50.{op}": _percentile(
                [ms for kind, ms, _ in outcome.requests if kind == op], 50
            )
            for op in ("create", "join", "leave", "kill", "stats")
        }
        return {
            "service.tick_ms_p99": tick.get("p99", 0.0),
            "service.workers.sessions_per_round": _ratio(ticks, rounds),
            "service.req_ms_p99": _percentile(latencies, 99),
            "service.loadgen.late_ms_p95": _percentile(outcome.late_ms, 95),
            "service.loadgen.casualty_share": _ratio(outcome.casualties, outcome.attempted),
            **by_op,
        }

    failed = outcome.failed + sessions_failed + leaked_drivers + leaked_shm
    return {
        "ops": ticks,
        "timed_wall_s": wall,
        "attempted": outcome.attempted,
        "failed": failed,
        "failures": {
            "errors_5xx": outcome.errors_5xx,
            "connection_errors": outcome.connection_errors,
            "unexpected_4xx": outcome.unexpected_4xx,
            "sessions_failed": sessions_failed,
            "leaked_drivers": leaked_drivers,
            "leaked_shm_segments": leaked_shm,
        },
        "checks": checks,
        # The request trace is the deterministic part of this workload;
        # what the service answers depends on thread timing.
        "digest": _sha(schedule),
        "metrics": metrics,
        "extras": extras,
        "info": {
            "requests": len(outcome.requests),
            "polls_skipped": outcome.skipped,
            "casualties": outcome.casualties,
            "paced_wall_s": outcome.paced_wall_s,
            "sessions": outcome.sessions_created,
        },
    }


RUNNERS = {
    "call": run_call,
    "call_eval": run_call,
    "fleet": run_fleet,
    "service_churn": run_service_churn,
}


# ----------------------------------------------------------------------
# Per-layer table from a traced run
# ----------------------------------------------------------------------


def layer_metrics(tracer, encodes: dict, outcome: dict) -> dict:
    """``L.self_ms_per_op`` / ``L.calls_per_op`` plus the named extras."""
    from spans import LAYERS, aggregate, span_cost_s

    ops = max(1, outcome["ops"])
    layers = aggregate(tracer.spans)
    table = {}
    for layer in LAYERS:
        entry = layers.get(layer, {})
        table[f"{layer}.self_ms_per_op"] = 1e3 * entry.get("self_s", 0.0) / ops
        table[f"{layer}.calls_per_op"] = entry.get("calls", 0) / ops
    try:
        table.update(outcome["extras"]())
    except Exception:  # a report field is gone: drop the extras, keep the run
        traceback.print_exc()
        tracer.unresolved.append(f"extras:{outcome['workload']}")

    def durations_ms(layer: str) -> list:
        return [1e3 * (s.end - s.start) for s in tracer.spans if s.layer == layer and s.call]

    if outcome["workload"] in ("call", "call_eval"):
        send = durations_ms("runtime.stage")
        table["core.session.send_ms_p50"] = _percentile(send, 50)
        table["core.session.send_ms_p95"] = _percentile(send, 95)
        table["core.session.recv_ms_p50"] = _percentile(durations_ms("core.receiver.decode"), 50)
    else:
        table["sfu.node.forwards_per_op"] = layers.get("sfu.node.forward", {}).get("calls", 0) / ops
    if outcome["workload"] == "service_churn":
        table["service.workers.round_ms_p50"] = _percentile(durations_ms("service.workers.round"), 50)
    # Useful outcomes per attempt at the encoder: every frame needs one
    # rate-targeted encode; each extra plain encode is a retry whose
    # first result was thrown away.
    table["codec.encode_first_try_ratio"] = _ratio(encodes["targeted"][0], encodes["plain"][0])
    roots = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    table["trace.coverage"] = _ratio(roots, outcome["timed_wall_s"])
    table["trace.span_cost_pct"] = 100.0 * _ratio(
        len(tracer.spans) * span_cost_s(), outcome["timed_wall_s"]
    )
    table["trace.unresolved_targets"] = len(tracer.unresolved)
    return table


def host_info() -> dict:
    import platform

    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's time.monotonic() when it started this process")
    parser.add_argument("--trace-out", default=None, help="write the raw spans here (JSONL)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"e2e benchmark: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    run = _Run(args)
    tracer = None
    if args.trace:
        from spans import SpanTracer

        tracer = SpanTracer().patch()
        # Counted, not timed: the encoder generators run inside the
        # sender's encode span and their time is already charged there.
        encodes = {
            "targeted": tracer.count("repro.codec.video:VideoEncoder.encode_to_target_steps"),
            "plain": tracer.count("repro.codec.video:VideoEncoder.encode_steps"),
        }
    try:
        outcome = RUNNERS[args.workload](run, args.workload)
    except _SetupOnly:
        print(json.dumps({"workload": args.workload, "setup_s": run.setup_s}))
        return 0
    finally:
        if tracer is not None:
            tracer.restore()

    outcome.update(
        workload=args.workload, seed=args.seed, host=host_info(),
        setup_s=run.setup_s, setup_in_call_s=run.setup_in_call_s,
    )
    outcome["metrics"]["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        outcome["layers"] = layer_metrics(tracer, encodes, outcome)
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    del outcome["extras"]
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
