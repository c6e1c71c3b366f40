"""Deterministic churn load generator for the session service.

Builds a seeded request schedule -- thousands of simulated clients
arriving, staying, and leaving across sessions pinned at mixed rate
tiers, with kill storms dropped on live sessions mid-run -- then fires
it at a service over HTTP through a bounded keep-alive connection
pool.  Same seed, same schedule, request for request: determinism is a
tested property (:func:`build_schedule` is pure), so a churn-survival
regression replays exactly.

Simulated time: the schedule is sliced into ``slot_s`` slots and each
slot's requests fire concurrently; the generator runs the slots as
fast as the service answers (wall-clock is the measurement, not the
pacing).  ``duration_s`` is therefore *simulated* seconds of schedule,
not wall seconds.

Survival accounting separates **casualties** from **failures**: a 404/
409 on a session a kill storm already tore down is the load generator
racing the operator -- expected, counted as ``churn_casualties``.  A
5xx is never expected (``errors_5xx`` must be 0: crashed sessions
degrade to ``state: dead``, they do not 500).

``run_loadgen`` hosts the service in-process by default (so it can
also assert the leak gauges: no live drivers, no stray shared-memory
segments) or targets an external ``--url``.  Writes
``BENCH_service.json`` via :func:`repro.service.loadgen.main`.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field

__all__ = [
    "LoadgenConfig",
    "LoadgenResult",
    "build_schedule",
    "run_loadgen",
    "main",
]

# Request ops a schedule slot can carry.  ``session`` fields are
# *logical* indices; the runner maps them to service-assigned ids from
# create responses.
OP_CREATE = "create"
OP_JOIN = "join"
OP_LEAVE = "leave"
OP_KILL = "kill"
OP_STATS = "stats"
OP_HEALTHZ = "healthz"

# Statuses that are churn casualties (not failures) once the target
# session was killed: the op raced the teardown.
_CASUALTY_STATUSES = {404, 409, 410}


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
    poll_every_slots: int = 5      # stats+healthz cadence
    pool: int = 16                 # HTTP connection pool size
    url: str | None = None         # target an external service instead

    def __post_init__(self) -> None:
        if self.clients <= 0 or self.receivers_per_session <= 0:
            raise ValueError("clients/receivers_per_session must be positive")
        if self.duration_s <= 0 or self.slot_s <= 0:
            raise ValueError("duration_s/slot_s must be positive")
        if not 0.0 <= self.kill_fraction <= 1.0:
            raise ValueError("kill_fraction must be in [0, 1]")


@dataclass
class LoadgenResult:
    """Aggregate outcome of one run (the BENCH_service payload)."""

    clients: int
    sessions: int
    slots: int
    requests_total: int
    wall_s: float
    requests_per_s: float
    status_counts: dict = field(default_factory=dict)
    errors_5xx: int = 0
    churn_casualties: int = 0
    kills_sent: int = 0
    joins_sent: int = 0
    leaves_sent: int = 0
    tick_ms_p50: float = 0.0
    tick_ms_p99: float = 0.0
    tick_ms_mean: float = 0.0
    ticks_total: int = 0
    sessions_failed: int = 0
    capture_hit_rate: float = 0.0  # shared frame memo, end of run
    leaked_drivers: int = -1       # -1 = not checkable (external target)
    leaked_shm_segments: int = -1
    final_session_counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


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
    for slot in range(0, num_slots, max(1, config.poll_every_slots)):
        slots[slot].append(
            {"op": OP_STATS, "session": rng.randrange(num_sessions)}
        )
        slots[slot].append({"op": OP_HEALTHZ})

    return slots


class _Run:
    """Mutable state of one schedule execution."""

    def __init__(self, config: LoadgenConfig, client) -> None:
        self.config = config
        self.client = client
        self.session_ids: dict[int, str] = {}   # logical -> service id
        self.killed: set[int] = set()
        self.status_counts: dict[int, int] = {}
        self.requests = 0
        self.casualties = 0
        self.kills = self.joins = self.leaves = 0

    def _count(self, status: int, op: dict) -> None:
        self.requests += 1
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        if status in _CASUALTY_STATUSES and op["session"] in self.killed:
            self.casualties += 1

    async def _fire(self, op: dict) -> None:
        kind = op["op"]
        if kind == OP_HEALTHZ:
            status, _ = await self.client.request("GET", "/healthz")
            self.requests += 1
            self.status_counts[status] = self.status_counts.get(status, 0) + 1
            return
        if kind == OP_CREATE:
            status, payload = await self.client.request(
                "POST", "/v1/sessions", {"scheme": op["scheme"], "seed": op["session"]}
            )
            self.requests += 1
            self.status_counts[status] = self.status_counts.get(status, 0) + 1
            if status in (201, 410):
                self.session_ids[op["session"]] = payload["session"]
            return
        session_id = self.session_ids.get(op["session"])
        if session_id is None:  # create itself failed; count as casualty
            self.casualties += 1
            return
        if kind == OP_JOIN:
            self.joins += 1
            status, _ = await self.client.request(
                "POST", f"/v1/sessions/{session_id}/join", {"client": op["client"]}
            )
        elif kind == OP_LEAVE:
            self.leaves += 1
            status, _ = await self.client.request(
                "POST", f"/v1/sessions/{session_id}/leave", {"client": op["client"]}
            )
        elif kind == OP_KILL:
            self.kills += 1
            status, _ = await self.client.request(
                "POST", f"/v1/sessions/{session_id}/kill"
            )
            self.killed.add(op["session"])
        else:  # OP_STATS
            status, _ = await self.client.request(
                "GET", f"/v1/sessions/{session_id}/stats"
            )
        self._count(status, op)


async def _execute(config: LoadgenConfig, host: str, port: int,
                   schedule: list[list[dict]]) -> _Run:
    from repro.service.http import JsonClient

    client = JsonClient(host, port, pool=config.pool)
    run = _Run(config, client)
    try:
        for slot in schedule:
            # Creates first (joins in the same slot need the id), then
            # everything else concurrently -- the churn burst.
            creates = [op for op in slot if op["op"] == OP_CREATE]
            rest = [op for op in slot if op["op"] != OP_CREATE]
            if creates:
                await asyncio.gather(*(run._fire(op) for op in creates))
            if rest:
                await asyncio.gather(*(run._fire(op) for op in rest))
        # Teardown: kill whatever the storms spared, then wait for the
        # worker pool to reap every session.
        survivors = [
            s for s in sorted(run.session_ids) if s not in run.killed
        ]
        await asyncio.gather(
            *(
                run._fire({"op": OP_KILL, "session": s})
                for s in survivors
            )
        )
        for _ in range(500):
            status, payload = await client.request("GET", "/healthz")
            counts = payload.get("sessions", {})
            if counts.get("running", 0) == 0 and counts.get("draining", 0) == 0:
                break
            await asyncio.sleep(0.01)
        run.final_counts = counts
        status, run.metrics = await client.request("GET", "/metrics")
    finally:
        await client.aclose()
    return run


def _count_shm_segments() -> int:
    import os

    from repro.runtime.shm import SHM_NAME_PREFIX

    try:
        return sum(
            1 for name in os.listdir("/dev/shm") if name.startswith(SHM_NAME_PREFIX)
        )
    except OSError:  # no /dev/shm (non-Linux); skip the check
        return -1


def run_loadgen(config: LoadgenConfig, service_config=None) -> LoadgenResult:
    """Run the schedule against a service; in-process unless ``url``.

    In-process runs also verify the teardown invariants the issue
    demands: zero live drivers after stop and zero shared-memory
    segments leaked over the run.
    """
    schedule = build_schedule(config)
    num_sessions = math.ceil(config.clients / config.receivers_per_session)

    handle = None
    if config.url is None:
        from repro.service.app import ServiceConfig, ServiceHandle

        shm_before = _count_shm_segments()
        handle = ServiceHandle(service_config or ServiceConfig()).start()
        host, port = handle.host, handle.port
    else:
        from urllib.parse import urlsplit

        split = urlsplit(config.url)
        host, port = split.hostname, split.port or 80

    wall_start = time.perf_counter()
    try:
        run = asyncio.run(_execute(config, host, port, schedule))
    finally:
        wall_s = time.perf_counter() - wall_start
        leaked_drivers = leaked_shm = -1
        if handle is not None:
            handle.stop()
            leaked_drivers = handle.app.registry.live_drivers()
            shm_after = _count_shm_segments()
            leaked_shm = (
                shm_after - shm_before if shm_before >= 0 and shm_after >= 0 else -1
            )

    metrics = getattr(run, "metrics", {})
    tick = metrics.get("service.tick_ms", {})
    ticks = metrics.get("service.ticks", {})
    failed = metrics.get("service.sessions.failed", {})
    capture = metrics.get("cache.capture_frames.hit_rate", {})
    errors_5xx = sum(
        count for status, count in run.status_counts.items() if status >= 500
    )
    return LoadgenResult(
        clients=config.clients,
        sessions=num_sessions,
        slots=len(schedule),
        requests_total=run.requests,
        wall_s=round(wall_s, 3),
        requests_per_s=round(run.requests / wall_s, 1) if wall_s else 0.0,
        status_counts={str(k): v for k, v in sorted(run.status_counts.items())},
        errors_5xx=errors_5xx,
        churn_casualties=run.casualties,
        kills_sent=run.kills,
        joins_sent=run.joins,
        leaves_sent=run.leaves,
        tick_ms_p50=round(tick.get("p50", 0.0), 4),
        tick_ms_p99=round(tick.get("p99", 0.0), 4),
        tick_ms_mean=round(tick.get("mean", 0.0), 4),
        ticks_total=int(tick.get("count", ticks.get("value", 0) or 0)),
        sessions_failed=int(failed.get("value", 0)),
        capture_hit_rate=round(capture.get("value", 0.0), 4),
        leaked_drivers=leaked_drivers,
        leaked_shm_segments=leaked_shm,
        final_session_counts=getattr(run, "final_counts", {}),
    )


def main(argv=None, min_capture_hit_rate: float | None = None) -> int:
    """CLI entry: ``python -m repro loadgen`` lands here.

    ``min_capture_hit_rate`` fails the run (exit 1) when the shared
    frame memo's end-of-run hit rate is below it.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Drive the session service with deterministic churn",
    )
    parser.add_argument("--clients", type=int, default=1000)
    parser.add_argument("--receivers-per-session", type=int, default=8)
    parser.add_argument("--duration", type=float, default=10.0,
                        help="simulated seconds of schedule")
    parser.add_argument("--slot", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kill-storms", type=int, default=1)
    parser.add_argument("--kill-fraction", type=float, default=0.15)
    parser.add_argument("--url", default=None,
                        help="target an external service (default: in-process)")
    parser.add_argument(
        "--max-p99-ms", type=float, default=None,
        help="fail (exit 1) if session tick p99 exceeds this budget "
        "(the CI latency-regression gate)",
    )
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args(argv)

    config = LoadgenConfig(
        clients=args.clients,
        receivers_per_session=args.receivers_per_session,
        duration_s=args.duration,
        slot_s=args.slot,
        seed=args.seed,
        kill_storms=args.kill_storms,
        kill_fraction=args.kill_fraction,
        url=args.url,
    )
    result = run_loadgen(config)
    written = (
        "clients", "receivers_per_session", "duration_s", "slot_s", "seed",
        "kill_storms", "kill_fraction", "url",
    )
    payload = {
        "bench": "service",
        "config": {name: getattr(config, name) for name in written},
        "result": result.to_dict(),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"loadgen: {result.requests_total} requests in {result.wall_s}s "
        f"({result.requests_per_s}/s), tick p50={result.tick_ms_p50}ms "
        f"p99={result.tick_ms_p99}ms, capture hit rate="
        f"{result.capture_hit_rate}, 5xx={result.errors_5xx}, "
        f"casualties={result.churn_casualties}, "
        f"leaked drivers={result.leaked_drivers} "
        f"shm={result.leaked_shm_segments} -> {args.out}"
    )
    ok = result.errors_5xx == 0 and result.leaked_drivers in (-1, 0) and (
        result.leaked_shm_segments in (-1, 0)
    )
    if args.max_p99_ms is not None and result.tick_ms_p99 > args.max_p99_ms:
        print(
            f"loadgen: tick p99 {result.tick_ms_p99}ms exceeds budget "
            f"{args.max_p99_ms}ms"
        )
        ok = False
    if min_capture_hit_rate is not None and result.capture_hit_rate < min_capture_hit_rate:
        print(f"loadgen: capture hit rate {result.capture_hit_rate} < {min_capture_hit_rate}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
