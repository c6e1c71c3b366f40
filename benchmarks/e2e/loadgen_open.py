"""Open-loop, paced driver for the ``service_churn`` workload.

The program's own ``run_loadgen`` is a *closed* loop: it fires each
schedule slot as soon as the service has answered the previous one, so
a slow service simply receives less load and the run's wall clock --
not the users -- sets the rate.  Conference users are independent of
each other, so this driver fires the same schedule
(:func:`repro.service.loadgen.build_schedule`) **open loop**:

- slot *i* is due at ``t0 + i * slot_s`` whether or not earlier slots
  have been answered; each slot runs as its own task;
- inside a slot the creates go first (a join needs the session id the
  create returns), then everything else concurrently;
- every request is timed from its slot's **due** time, so time spent
  queueing behind a stalled service (or for one of the two keep-alive
  connections) counts as latency;
- how late each slot was actually launched is recorded -- the
  generator's own lag, which bounds how far the numbers can be trusted;
- a stats poll drawn for a session whose create is not yet due is
  skipped and not counted as attempted.

The stock closed-loop ``run_loadgen`` is left alone and is not timed.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from time import perf_counter

__all__ = ["OpenLoopResult", "count_shm_segments", "drive"]

# A 404/409/410 on a session a kill storm already tore down is the
# load racing the operator, not a failure (same rule as run_loadgen).
CASUALTY_STATUSES = frozenset({404, 409, 410})
CONNECTIONS = 2


@dataclass
class OpenLoopResult:
    """Everything one paced run observed."""

    paced_wall_s: float = 0.0
    # One row per request sent: (op, latency from due time in ms, status).
    requests: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)       # per slot: launch - due
    skipped: int = 0                                  # polls on uncreated sessions
    casualties: int = 0
    connection_errors: int = 0
    unexpected_4xx: int = 0
    errors_5xx: int = 0
    sessions_created: int = 0
    health_at_end: dict = field(default_factory=dict)     # end of the paced window
    metrics_at_end: dict = field(default_factory=dict)
    final_counts: dict = field(default_factory=dict)      # after teardown

    @property
    def attempted(self) -> int:
        return len(self.requests) + self.connection_errors

    @property
    def failed(self) -> int:
        return self.connection_errors + self.unexpected_4xx + self.errors_5xx


def count_shm_segments() -> int:
    """Shared-memory segments of the program now in ``/dev/shm``."""
    from repro.runtime.shm import SHM_NAME_PREFIX

    try:
        return sum(1 for name in os.listdir("/dev/shm") if name.startswith(SHM_NAME_PREFIX))
    except OSError:  # no /dev/shm on this platform
        return -1


class _Run:
    def __init__(self, client, schedule, slot_s: float) -> None:
        self.client = client
        self.schedule = schedule
        self.slot_s = slot_s
        self.result = OpenLoopResult()
        self.create_slot = {
            op["session"]: index
            for index, slot in enumerate(schedule)
            for op in slot
            if op["op"] == "create"
        }
        self.session_ids: dict[int, asyncio.Future] = {}
        self.killed: set[int] = set()
        self.t0 = 0.0

    async def _request(self, op: str, due: float, method: str, path: str, payload=None):
        """One timed round trip; returns (status, body) or (None, {})."""
        try:
            status, body = await self.client.request(method, path, payload)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            self.result.connection_errors += 1
            return None, {}
        self.result.requests.append((op, (perf_counter() - due) * 1e3, status))
        if status >= 500:
            self.result.errors_5xx += 1
        return status, body

    def _judge(self, status, session: int) -> None:
        """Sort a 4xx into casualty (raced a kill) or failure."""
        if status is None or status < 400 or status >= 500:
            return
        if status in CASUALTY_STATUSES and session in self.killed:
            self.result.casualties += 1
        else:
            self.result.unexpected_4xx += 1

    async def _fire(self, op: dict, slot: int, due: float) -> None:
        kind = op["op"]
        if kind == "healthz":
            await self._request(kind, due, "GET", "/healthz")
            return
        session = op["session"]
        if kind == "create":
            status, body = await self._request(
                kind, due, "POST", "/v1/sessions",
                {"scheme": op["scheme"], "seed": session},
            )
            created = status in (201, 410)
            self.result.sessions_created += created
            self.session_ids[session].set_result(body["session"] if created else None)
            if status is not None and not created:
                self._judge(status, session)
            return
        if self.create_slot[session] > slot:
            self.result.skipped += 1      # only stats polls can land here
            return
        session_id = await self.session_ids[session]
        if session_id is None:            # its create failed and was counted
            self.result.skipped += 1
            return
        base = f"/v1/sessions/{session_id}"
        if kind == "stats":
            status, _ = await self._request(kind, due, "GET", f"{base}/stats")
        elif kind == "kill":
            self.killed.add(session)
            status, _ = await self._request(kind, due, "POST", f"{base}/kill")
        else:  # join / leave
            status, _ = await self._request(
                kind, due, "POST", f"{base}/{kind}", {"client": op["client"]}
            )
        self._judge(status, session)

    async def _slot(self, index: int, due: float) -> None:
        self.result.late_ms.append((perf_counter() - due) * 1e3)
        ops = self.schedule[index]
        creates = [op for op in ops if op["op"] == "create"]
        rest = [op for op in ops if op["op"] != "create"]
        if creates:
            await asyncio.gather(*(self._fire(op, index, due) for op in creates))
        if rest:
            await asyncio.gather(*(self._fire(op, index, due) for op in rest))

    async def paced(self) -> None:
        loop = asyncio.get_running_loop()
        self.session_ids = {session: loop.create_future() for session in self.create_slot}
        self.t0 = perf_counter()
        tasks = []
        for index in range(len(self.schedule)):
            due = self.t0 + index * self.slot_s
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self._slot(index, due)))
        end_of_schedule = self.t0 + len(self.schedule) * self.slot_s
        await asyncio.gather(*tasks)
        delay = end_of_schedule - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        # Read the service's counters while the sessions are still up:
        # throughput is ticks over exactly this window.
        _, self.result.health_at_end = await self.client.request("GET", "/healthz")
        _, self.result.metrics_at_end = await self.client.request("GET", "/metrics")
        self.result.paced_wall_s = perf_counter() - self.t0

    async def teardown(self) -> None:
        """Kill what the storms spared and wait for the pool to reap it."""
        survivors = [
            future.result()
            for session, future in sorted(self.session_ids.items())
            if session not in self.killed and future.done() and future.result()
        ]
        await asyncio.gather(
            *(self.client.request("POST", f"/v1/sessions/{sid}/kill") for sid in survivors)
        )
        counts = {}
        for _ in range(1000):
            _, payload = await self.client.request("GET", "/healthz")
            counts = payload.get("sessions", {})
            if not counts.get("running") and not counts.get("draining") and not counts.get("creating"):
                break
            await asyncio.sleep(0.01)
        self.result.final_counts = counts


async def drive(host: str, port: int, schedule, slot_s: float) -> OpenLoopResult:
    """Fire ``schedule`` at the service, paced; then tear everything down."""
    from repro.service.http import JsonClient

    client = JsonClient(host, port, pool=CONNECTIONS)
    run = _Run(client, schedule, slot_s)
    try:
        await run.paced()
        await run.teardown()
    finally:
        await client.aclose()
    return run.result
