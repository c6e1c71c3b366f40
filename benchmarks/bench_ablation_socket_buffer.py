"""Ablation: receiver socket buffer sizing (appendix A.1).

"Because 4K videos are large, the default Linux UDP socket buffer
(213 KB) proved insufficient, so we increased it."  Large tiled frames
arrive as tight packet bursts; a small socket buffer overflows before
the application drains it.  This ablation replays the same bursty
traffic against the default 213 KB buffer, an enlarged one, and no
buffer model, and counts socket-level drops and completed frames.
"""

from conftest import write_result
from repro.transport.channel import WebRTCChannel, WebRTCConfig
from repro.transport.link import EmulatedLink, LinkConfig
from repro.transport.traces import constant_trace

NUM_FRAMES = 45
FRAME_BYTES = 300_000  # a large tiled 4K-I-frame-ish burst
BURST_FPS = 10.0       # keep sustained load under the drain rate
DRAIN_BPS = 40e6       # receiving app ingests slower than the wire

BUFFERS = {
    "213 KB (default)": 213_000,
    "1 MB (increased)": 1_000_000,
    "unbounded": None,
}


def run_with_buffer(buffer_bytes: int | None):
    link = EmulatedLink(
        constant_trace(200.0),
        LinkConfig(
            propagation_delay_s=0.01,
            receive_buffer_bytes=buffer_bytes,
            receive_drain_rate_bps=DRAIN_BPS,
        ),
    )
    # No NACK: isolate the socket buffer's effect (the paper's
    # observation predates recovery tuning).
    channel = WebRTCChannel(link, WebRTCConfig(nack_retries=0))
    for frame in range(NUM_FRAMES):
        channel.send_frame(0, frame, bytes(FRAME_BYTES), now=frame / BURST_FPS)
    deliveries = channel.poll_deliveries(NUM_FRAMES / BURST_FPS + 3.0)
    complete = {d.frame_sequence for d in deliveries}
    on_time = sum(
        1 for d in deliveries if d.completion_time_s - d.send_time_s <= 0.25
    )
    return {
        "socket_drops": link.socket_drops,
        "frames_complete": len(complete),
        "frames_on_time": on_time,
    }


def test_ablation_socket_buffer(benchmark, results_dir):
    def build():
        return {name: run_with_buffer(size) for name, size in BUFFERS.items()}

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    lines = [
        f"{'Buffer':18s} {'socket drops':>13s} {'frames ok':>10s} "
        f"{'on-time':>8s} / {NUM_FRAMES}"
    ]
    for name, row in rows.items():
        lines.append(
            f"{name:18s} {row['socket_drops']:13d} {row['frames_complete']:10d} "
            f"{row['frames_on_time']:8d}"
        )
    write_result("ablation_socket_buffer.txt", "\n".join(lines))

    default = rows["213 KB (default)"]
    increased = rows["1 MB (increased)"]
    unbounded = rows["unbounded"]
    # The paper's observation: the default buffer overflows on large
    # frames; increasing it fixes delivery.
    assert default["socket_drops"] > 0
    assert increased["socket_drops"] < default["socket_drops"]
    assert increased["frames_complete"] >= default["frames_complete"]
    assert increased["frames_on_time"] > default["frames_on_time"]
    assert unbounded["socket_drops"] == 0
    assert unbounded["frames_complete"] == NUM_FRAMES
