"""Ablation: packet-loss robustness with and without FEC.

The paper handles loss with NACK/PLI and names loss robustness as
future work (section 5, appendix A.1).  This ablation measures frame
delivery under random loss for three recovery configurations --
NACK-only (the paper's), FEC-only, and FEC+NACK -- plus the bandwidth
overhead FEC charges.
"""

from conftest import write_result
from repro.transport.channel import WebRTCChannel, WebRTCConfig
from repro.transport.link import EmulatedLink, LinkConfig
from repro.transport.traces import constant_trace

LOSS_RATES = (0.0, 0.02, 0.05, 0.10)
NUM_FRAMES = 60
FRAME_BYTES = 20_000


def run_config(loss_rate: float, nack_retries: int, fec_group_size: int | None,
               seed: int = 11):
    link = EmulatedLink(
        constant_trace(100.0),
        LinkConfig(propagation_delay_s=0.015, loss_rate=loss_rate, seed=seed),
    )
    channel = WebRTCChannel(
        link, WebRTCConfig(nack_retries=nack_retries, fec_group_size=fec_group_size)
    )
    for frame in range(NUM_FRAMES):
        channel.send_frame(0, frame, bytes(FRAME_BYTES), now=frame / 30.0)
    deliveries = channel.poll_deliveries(NUM_FRAMES / 30.0 + 3.0)
    complete = {d.frame_sequence for d in deliveries}
    # On-time: within a 250 ms playout budget.
    on_time = sum(
        1 for d in deliveries if d.completion_time_s - d.send_time_s <= 0.25
    )
    return {
        "delivered": len(complete) / NUM_FRAMES,
        "on_time": on_time / NUM_FRAMES,
        "bytes": channel.bytes_sent_per_stream[0],
    }


def test_ablation_fec_loss_robustness(benchmark, results_dir):
    def build():
        table = {}
        for loss in LOSS_RATES:
            table[loss] = {
                "nack-only": run_config(loss, nack_retries=3, fec_group_size=None),
                "fec-only": run_config(loss, nack_retries=0, fec_group_size=4),
                "fec+nack": run_config(loss, nack_retries=3, fec_group_size=4),
                "none": run_config(loss, nack_retries=0, fec_group_size=None),
            }
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    modes = ("none", "nack-only", "fec-only", "fec+nack")
    lines = [f"{'loss':>5s} " + " ".join(f"{m + ' dlv/ontime':>20s}" for m in modes)]
    for loss, row in table.items():
        cells = " ".join(
            f"{row[m]['delivered']:8.1%}/{row[m]['on_time']:7.1%}" for m in modes
        )
        lines.append(f"{loss:5.0%} {cells}")
    overhead = (
        table[0.0]["fec-only"]["bytes"] / table[0.0]["none"]["bytes"] - 1.0
    )
    lines.append(f"FEC bandwidth overhead at zero loss: {overhead:.1%}")
    write_result("ablation_fec.txt", "\n".join(lines))

    for loss in (0.02, 0.05, 0.10):
        row = table[loss]
        # Any recovery beats none; combining is at least as good as NACK.
        assert row["nack-only"]["delivered"] > row["none"]["delivered"]
        assert row["fec-only"]["delivered"] > row["none"]["delivered"]
        assert row["fec+nack"]["delivered"] >= row["nack-only"]["delivered"] - 0.02
        # FEC repairs locally: better on-time rate than NACK round trips
        # at moderate loss.
        if loss <= 0.05:
            assert row["fec+nack"]["on_time"] >= row["nack-only"]["on_time"] - 0.05
    assert 0.1 < overhead < 0.4  # ~1/group_size
