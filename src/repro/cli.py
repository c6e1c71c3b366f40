"""Command-line interface: run sessions and inspect workloads.

Usage (after ``python setup.py develop``)::

    python -m repro videos                     # list evaluation videos
    python -m repro schemes                    # list comparison schemes
    python -m repro traces                     # Table 4 trace statistics
    python -m repro run --video band2 --scheme LiVo --net-trace trace-1
    python -m repro run --video band2 --trace /tmp/session.json   # Perfetto
    python -m repro export --video pizza1 --out /tmp/pizza1
    python -m repro multiway --mode sfu --receivers 4   # SFU fan-out
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["build_parser", "main"]


def _ranged(kind, low, high=float("inf")):
    """An argparse type: ``kind(text)`` within ``[low, high]``."""

    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:
            bound = f">= {low}" if high == float("inf") else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, not {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


_positive_int = _ranged(int, 1)


def _output_dir(text: str) -> Path:
    """An argparse type: a directory path that is, or can become, a directory."""
    path = Path(text)
    for part in (path, *path.parents):
        if part.exists() and not part.is_dir():
            raise argparse.ArgumentTypeError(f"{part} exists and is not a directory")
    return path


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    from repro.capture.dataset import video_names
    from repro.core.config import FRAME_INTERVAL_S
    from repro.core.schemes import SCHEMES

    videos = video_names()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LiVo reproduction: bandwidth-adaptive volumetric conferencing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("videos", help="list the Table 3 evaluation videos")
    sub.add_parser("schemes", help="list the comparison schemes (Table 2)")
    sub.add_parser("traces", help="print Table 4 bandwidth trace statistics")

    run = sub.add_parser("run", help="replay one session and print its report")
    run.add_argument("--video", choices=videos, default="band2")
    run.add_argument(
        "--scheme",
        default="LiVo",
        choices=list(SCHEMES),
    )
    run.add_argument(
        "--net-trace", default="trace-1", choices=["trace-1", "trace-2"],
        help="bandwidth trace to replay (Table 4)",
    )
    run.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record per-frame spans and write a Chrome trace_event JSON "
        "(open in Perfetto / chrome://tracing); LiVo schemes only",
    )
    run.add_argument(
        "--trace-jsonl", metavar="PATH", default=None, dest="spans_jsonl",
        help="also/instead write the raw span records as JSONL",
    )
    run.add_argument("--frames", type=_positive_int, default=30)
    run.add_argument(
        "--user", type=int, default=0, choices=range(3), help="user trace index (0-2)"
    )
    run.add_argument("--cameras", type=_positive_int, default=8)
    run.add_argument(
        "--profile", action="store_true",
        help="print the per-stage wall-clock timing breakdown after the run",
    )
    run.add_argument(
        "--quality-max-points", type=_positive_int, default=None,
        help="stratified-subsample clouds above this size before PointSSIM "
        "(deterministic approximation; default: exact scoring)",
    )

    analyze = sub.add_parser(
        "analyze-trace",
        help="reconstruct the per-stage critical path of a span JSONL "
        "export; with two files, diff them (before after)",
    )
    analyze.add_argument(
        "traces", nargs="+", metavar="TRACE_JSONL",
        help="one trace prints its critical path; two diff them "
        "(before, after)",
    )
    analyze.add_argument(
        "--categories", default="stage",
        help="comma-separated span categories to include (default: stage; "
        "e.g. stage,kernel,worker)",
    )
    analyze.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative movement below this is reported unchanged",
    )

    export = sub.add_parser(
        "export", help="dump one capture's frames and point cloud to files"
    )
    export.add_argument("--video", choices=videos, default="band2")
    export.add_argument("--out", type=_output_dir, required=True, help="output directory")
    export.add_argument("--frame", type=_ranged(int, 0), default=0)

    multiway = sub.add_parser(
        "multiway", help="run a one-sender/N-receiver conference and print stats"
    )
    multiway.add_argument("--video", choices=videos, default="pizza1")
    multiway.add_argument(
        "--mode", default="shared", choices=["shared", "unicast", "sfu"],
        help="fan-out architecture: per-receiver pipelines (unicast), one "
        "union-culled stream (shared), or an SFU node forwarding tailored "
        "per-receiver downlinks (sfu)",
    )
    multiway.add_argument("--receivers", type=_positive_int, default=3)
    multiway.add_argument("--frames", type=_positive_int, default=30)
    multiway.add_argument("--cameras", type=_positive_int, default=4)
    multiway.add_argument(
        "--target-mbps", type=float, default=2.0,
        help="per-stream encode target (and SFU downlink capacity)",
    )

    serve = sub.add_parser(
        "serve",
        help="host the session service (REST-ish control plane + tick workers)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_ranged(int, 0, 65535), default=8350)
    serve.add_argument("--video", choices=videos, default="office1")
    serve.add_argument("--cameras", type=_positive_int, default=2)
    serve.add_argument(
        "--tick-interval", type=_ranged(float, 0.0), default=FRAME_INTERVAL_S,
        help="seconds between tick rounds (0 = free-running)",
    )

    return parser


def _cmd_videos() -> int:
    from repro.capture.dataset import PANOPTIC_VIDEOS

    print(f"{'name':9s} {'objects':>8s} {'paper dur':>10s} {'description'}")
    for spec in PANOPTIC_VIDEOS.values():
        print(
            f"{spec.name:9s} {spec.paper_objects:8d} {spec.paper_duration_s:9d}s "
            f"{spec.description}"
        )
    return 0


def _cmd_schemes() -> int:
    from repro.core.schemes import SCHEMES

    for spec in SCHEMES.values():
        print(
            f"{spec.name:13s} {spec.kind:13s} compr={spec.compression:3s} "
            f"adapt={spec.bandwidth_adaptive:9s} fps={spec.fps} "
            f"cull={'yes' if spec.culls else 'no'}"
        )
    return 0


def _cmd_traces() -> int:
    from repro.transport.traces import trace_1, trace_2

    print(f"{'trace':9s} {'mean':>8s} {'max':>8s} {'min':>8s} {'p90':>8s} {'p10':>8s}")
    for name, trace in (("trace-1", trace_1(600)), ("trace-2", trace_2(600))):
        stats = trace.stats()
        print(
            f"{name:9s} {stats.mean:8.2f} {stats.max:8.2f} {stats.min:8.2f} "
            f"{stats.p90:8.2f} {stats.p10:8.2f}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.capture.dataset import load_video
    from repro.core.config import SessionConfig
    from repro.core.schemes import LIVO_SCHEMES
    from repro.core.session import run_scheme
    from repro.prediction.pose import user_traces_for_video
    from repro.transport.traces import trace_1, trace_2

    tracing = args.trace is not None or args.spans_jsonl is not None
    if tracing and args.scheme not in LIVO_SCHEMES:
        print(
            "error: --trace/--trace-jsonl instrument the LiVo pipeline only "
            f"(scheme {args.scheme!r} is untraced)",
            file=sys.stderr,
        )
        return 2

    _, scene = load_video(args.video, sample_budget=20_000)
    user = user_traces_for_video(args.video, args.frames + 10)[args.user]
    bandwidth = (
        trace_1(duration_s=30) if args.net_trace == "trace-1" else trace_2(duration_s=30)
    )

    config = SessionConfig(
        num_cameras=args.cameras, camera_width=64, camera_height=48,
        scene_sample_budget=20_000, gop_size=15, scheme=args.scheme,
        quality_max_points=args.quality_max_points,
        trace=tracing,
    )
    report = run_scheme(config, scene, user, bandwidth, args.frames, args.video)
    print(report.summary())
    if args.profile:
        print()
        print(report.timing_table())
        print()
        print(report.cache_table())
    if tracing and report.trace is not None:
        from repro.obs.export import write_chrome_trace, write_spans_jsonl

        spans = report.trace.spans()
        if args.trace is not None:
            write_chrome_trace(
                spans,
                args.trace,
                metadata={"scheme": args.scheme, "video": args.video},
            )
            print(f"wrote Chrome trace ({len(spans)} spans) to {args.trace}")
        if args.spans_jsonl is not None:
            write_spans_jsonl(spans, args.spans_jsonl)
            print(f"wrote span JSONL ({len(spans)} spans) to {args.spans_jsonl}")
        print()
        print(report.timeline_table(limit=10))
    return 0


def _cmd_analyze_trace(args: argparse.Namespace) -> int:
    from repro.analysis.tracetools import (
        critical_path_from_jsonl,
        diff_critical_paths,
        format_critical_path,
        format_diff,
    )

    if len(args.traces) > 2:
        print("error: analyze-trace takes one or two trace files", file=sys.stderr)
        return 2
    categories = tuple(
        part.strip() for part in args.categories.split(",") if part.strip()
    )
    try:
        paths = [
            critical_path_from_jsonl(trace, categories=categories)
            for trace in args.traces
        ]
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if len(paths) == 1:
        print(format_critical_path(paths[0], title=str(args.traces[0])))
        return 0
    diff = diff_critical_paths(paths[0], paths[1], rel_tolerance=args.tolerance)
    print(f"before: {args.traces[0]}")
    print(f"after:  {args.traces[1]}")
    print(format_diff(diff))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.capture.dataset import load_video
    from repro.capture.rig import default_rig
    from repro.geometry.camera import unproject_views
    from repro.viz import depth_to_color, write_ply, write_ppm

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    _, scene = load_video(args.video, sample_budget=20_000)
    rig = default_rig(num_cameras=8, width=64, height=48)
    frame = rig.capture(scene, args.frame)
    for view in frame.views:
        write_ppm(out / f"cam{view.camera_id:02d}_color.ppm", view.color)
        write_ppm(out / f"cam{view.camera_id:02d}_depth.ppm", depth_to_color(view.depth_mm))
    cloud = unproject_views(
        rig.cameras,
        [view.depth_mm for view in frame.views],
        [view.color for view in frame.views],
    )
    write_ply(out / "frame.ply", cloud)
    print(f"wrote {2 * len(frame.views)} images and frame.ply ({len(cloud)} points) to {out}")
    return 0


def _cmd_multiway(args: argparse.Namespace, usage_error) -> int:
    from repro.core.config import FRAME_INTERVAL_S, HORIZON_S, SessionConfig
    from repro.sfu.room import Room

    try:
        config = SessionConfig(
            num_cameras=args.cameras, camera_width=48, camera_height=36,
            scene_sample_budget=6000, gop_size=10,
        )
    except ValueError as error:  # a rig the tiler cannot mark
        usage_error(f"argument --cameras: {error}")
    room = Room(config, args.video, args.frames + 10, args.target_mbps)
    if args.mode == "unicast":
        party = room.unicast()
    elif args.mode == "sfu":
        party = room.conference(0, room.downlinks(config.link.seed))
    else:
        party = room.conference(0)
    for index in range(args.receivers):
        party.join(f"rx{index}", room.pose_trace(index))
    for sequence in range(args.frames):
        party.tick(
            room.source.capture(sequence),
            sequence * FRAME_INTERVAL_S,
            args.target_mbps * 1e6,
            HORIZON_S,
        )
    print(
        f"mode={args.mode} receivers={args.receivers} frames={args.frames}\n"
        f"uplink: {party.uplink_bytes} B total, "
        f"{party.uplink_bytes / args.frames:.0f} B/frame\n"
        f"encoder runs: {party.encoder_runs} "
        f"({party.encoder_runs / args.frames:.1f}/frame)"
    )
    if args.mode == "sfu":
        print(
            f"downlink: {party.downlink_bytes} B total across {args.receivers} "
            f"receivers ({party.downlink_bytes / args.frames:.0f} B/frame)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace, usage_error) -> int:
    import signal
    import threading

    from repro.service.app import ServiceConfig, ServiceHandle

    try:
        config = ServiceConfig(
            host=args.host, port=args.port, video=args.video,
            num_cameras=args.cameras, tick_interval_s=args.tick_interval,
        )
    except ValueError as error:  # a rig the tiler cannot mark
        usage_error(f"argument --cameras: {error}")
    handle = ServiceHandle(config).start()
    print(
        f"session service on http://{handle.host}:{handle.port} "
        f"(video={args.video}); Ctrl-C stops",
        flush=True,
    )
    done = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: done.set())
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    # Timed wait: the kernel may deliver the signal to a worker thread,
    # and the tripped flag is only processed when the main thread runs
    # bytecode — an untimed wait() would block it forever.
    while not done.wait(0.2):
        pass
    print("shutting down: draining sessions...")
    handle.stop()
    leaked = handle.app.registry.live_drivers()
    print(f"stopped ({leaked} leaked drivers)")
    return 0 if leaked == 0 else 1


_SCENARIO_FLAGS = {
    "--scenario",
    "--list-scenarios",
    "--replay",
    "--replay-corpus",
    "--run-zoo",
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # Scenario commands use top-level flags (`python -m repro --scenario
    # NAME --record r.jsonl`), routed before the subcommand parser.
    if argv and (argv[0] == "scenario" or argv[0].split("=")[0] in _SCENARIO_FLAGS):
        from repro.scenario.cli import main as scenario_main

        return scenario_main(argv[1:] if argv[0] == "scenario" else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "videos":
        return _cmd_videos()
    if args.command == "schemes":
        return _cmd_schemes()
    if args.command == "traces":
        return _cmd_traces()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "analyze-trace":
        return _cmd_analyze_trace(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "multiway":
        return _cmd_multiway(args, parser.error)
    if args.command == "serve":
        return _cmd_serve(args, parser.error)
    raise AssertionError(f"unhandled command {args.command!r}")
