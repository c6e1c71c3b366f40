#!/usr/bin/env python3
"""Multi-way conferencing: one sender, three receivers.

Demonstrates the cross-receiver optimization the paper leaves to future
work (section 3.1): instead of encoding a separately-culled stream per
receiver (unicast), the sender culls once to the *union* of all
receivers' predicted frustums and encodes a single shared stream.

Run:  python examples/multiway_broadcast.py
"""

from repro.core.config import FPS, HORIZON_S, SessionConfig
from repro.sfu.room import Room

NUM_FRAMES = 10
RECEIVERS = ["alice", "bob", "carol"]


def main() -> None:
    config = SessionConfig(
        num_cameras=8, camera_width=64, camera_height=48,
        scene_sample_budget=20_000, gop_size=8,
    )
    # The room: band2's scene, one cached capture source, three pose traces.
    room = Room(config, "band2", NUM_FRAMES + 10)

    # Both share one surface: join(name, pose feed), then one tick per frame.
    # A conference built without downlinks is the shared stream alone.
    parties = {"unicast": room.unicast(), "shared": room.conference()}
    totals = {}
    for mode, party in parties.items():
        for index, name in enumerate(RECEIVERS):
            party.join(name, room.pose_trace(index))
        for sequence in range(NUM_FRAMES):
            party.tick(room.source.capture(sequence), sequence / FPS, 8e6, HORIZON_S)
        totals[mode] = party.uplink_bytes
        print(
            f"{mode:8s}: {party.uplink_bytes / NUM_FRAMES:9.0f} bytes/frame, "
            f"{party.encoder_runs // NUM_FRAMES} encoder sessions"
        )

    saving = 1.0 - totals["shared"] / totals["unicast"]
    print(f"\nshared stream saves {saving:.0%} uplink bandwidth for "
          f"{len(RECEIVERS)} receivers — and encoder count stays at 2"
          f"\nregardless of fan-out (hardware encoders cap at ~8 sessions).")


if __name__ == "__main__":
    main()
