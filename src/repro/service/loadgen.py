"""Deterministic churn schedule for the session service.

Builds a seeded request schedule -- thousands of simulated clients
arriving, staying, and leaving across sessions pinned at mixed rate
tiers, with kill storms dropped on live sessions mid-run.  Same seed,
same schedule, request for request: :func:`build_schedule` is pure, so
a churn-survival regression replays exactly.

The schedule is sliced into ``slot_s`` slots; ``duration_s`` is
*simulated* seconds of schedule.  The one driver that fires it at a
service over HTTP is the benchmark's open-loop
``benchmarks/e2e/loadgen_open.py``: slot *i* is due at
``t0 + i * slot_s``, and a 5xx, an unexpected 4xx or a connection
error is a failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["LoadgenConfig", "build_schedule"]

# Request ops a schedule slot can carry.  ``session`` fields are
# *logical* indices; the driver maps them to service-assigned ids from
# create responses.
OP_CREATE = "create"
OP_JOIN = "join"
OP_LEAVE = "leave"
OP_KILL = "kill"
OP_STATS = "stats"
OP_HEALTHZ = "healthz"

POLL_EVERY_SLOTS = 5  # stats+healthz cadence


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load-generator run."""

    clients: int = 1000
    receivers_per_session: int = 8
    duration_s: float = 10.0       # simulated seconds of schedule
    slot_s: float = 0.1
    seed: int = 0
    kill_storms: int = 1
    kill_fraction: float = 0.15    # of sessions per storm

    def __post_init__(self) -> None:
        if self.clients <= 0 or self.receivers_per_session <= 0:
            raise ValueError("clients/receivers_per_session must be positive")
        if self.duration_s <= 0 or self.slot_s <= 0:
            raise ValueError("duration_s/slot_s must be positive")
        if not 0.0 <= self.kill_fraction <= 1.0:
            raise ValueError("kill_fraction must be in [0, 1]")


def build_schedule(config: LoadgenConfig) -> list[list[dict]]:
    """The full request schedule, slot by slot; pure in ``config``.

    Each slot is a list of op dicts fired concurrently.  Only
    ``random.Random(seed)`` feeds the draw, so two builds from one
    config are equal element for element -- the determinism contract
    the regression test pins.
    """
    rng = random.Random(config.seed)
    num_slots = max(1, int(round(config.duration_s / config.slot_s)))
    num_sessions = math.ceil(config.clients / config.receivers_per_session)
    schemes = ["livo-1m", "livo-2m", "livo-4m"]
    slots: list[list[dict]] = [[] for _ in range(num_slots)]

    # Sessions open across the first fifth of the run, each at a rate
    # tier drawn from the mix.
    create_span = max(1, num_slots // 5)
    create_slot = {}
    for session in range(num_sessions):
        slot = rng.randrange(create_span)
        create_slot[session] = slot
        slots[slot].append(
            {"op": OP_CREATE, "session": session, "scheme": rng.choice(schemes)}
        )

    # Clients arrive after their session exists, stay a drawn number of
    # slots, and leave -- unless the run ends (or a storm lands) first.
    for client in range(config.clients):
        session = client // config.receivers_per_session
        earliest = create_slot[session] + 1
        if earliest >= num_slots:
            earliest = num_slots - 1
        arrival = rng.randrange(earliest, max(earliest + 1, num_slots // 2))
        name = f"c{client:05d}"
        slots[arrival].append({"op": OP_JOIN, "session": session, "client": name})
        stay = rng.randrange(1, num_slots)
        departure = arrival + stay
        if departure < num_slots:
            slots[departure].append(
                {"op": OP_LEAVE, "session": session, "client": name}
            )

    # Kill storms: each drops a deterministic sample of the sessions
    # still unkilled, spread across the back half of the run.
    unkilled = list(range(num_sessions))
    for storm in range(config.kill_storms):
        slot = int(num_slots * (storm + 1) / (config.kill_storms + 1))
        slot = min(max(slot, 1), num_slots - 1)
        count = max(1, int(len(unkilled) * config.kill_fraction))
        victims = rng.sample(unkilled, min(count, len(unkilled)))
        for session in victims:
            unkilled.remove(session)
            slots[slot].append({"op": OP_KILL, "session": session})

    # Observability traffic: periodic stats polls on a drawn session
    # plus a healthz, like a dashboard would.
    for slot in range(0, num_slots, POLL_EVERY_SLOTS):
        slots[slot].append(
            {"op": OP_STATS, "session": rng.randrange(num_sessions)}
        )
        slots[slot].append({"op": OP_HEALTHZ})

    return slots
