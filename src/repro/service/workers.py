"""Tick worker pool: advances every running session, frame by frame.

The media plane of the one conference host: a scheduler thread runs
rounds for ``repro serve``; the fleet calls :meth:`~TickWorkerPool.
run_round` once per frame on its own thread.  A round

1. reaps draining sessions (closing their drivers),
2. applies each running session's queued membership ops (the registry
   mailboxes -- so HTTP joins/leaves never race the tick),
3. ticks every running session one frame through the cross-session
   :class:`~repro.runtime.batchplane.BatchPlane` (``run_lockstep``'s one
   caller, DESIGN.md section 9): sessions co-schedule in lockstep
   cohorts of at most
   :data:`~repro.runtime.batchplane.LOCKSTEP_COHORT`, one cohort after
   another,
4. records per-session tick latency into ``service.tick_ms``; the
   thread paces to ``tick_interval_s`` (0 = free-running).

Failure containment: a session whose tick raises is marked failed and
drained -- the other sessions in the round are unaffected (each
lockstep generator is wrapped in a guard that converts an escaped
exception into a per-session outcome), and the scheduler thread never
dies.  That is the degrade-don't-500 contract the load generator's
chaos profile leans on.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.core.config import FPS, HORIZON_S

__all__ = ["TickWorkerPool"]

# Scheduler idle sleep when no session is running.
_IDLE_SLEEP_S = 0.002


def _guarded_steps(driver, frame, now, target_rate_bps, horizon_s):
    """Wrap ``tick_steps`` so one session's crash stays its own.

    The batch plane re-raises kernel failures *inside* the owning
    generator; anything that escapes -- including failures before the
    first yield -- must not poison the lockstep round.  The guard turns
    the exception into a returned outcome the round handler can map to
    ``mark_failed``.
    """
    try:
        yield from driver.tick_steps(frame, now, target_rate_bps, horizon_s)
    except Exception as error:  # noqa: BLE001 -- the whole point
        return error


class TickWorkerPool:
    """Background scheduler ticking the registry's running sessions."""

    def __init__(
        self,
        registry,
        source,
        tick_interval_s: float = 0.0,
    ) -> None:
        from repro.runtime.batchplane import BatchPlane

        self.registry = registry
        self.source = source
        self.tick_interval_s = float(tick_interval_s)
        self.plane = BatchPlane()
        self.rounds = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._tick_ms = registry.metrics.histogram("service.tick_ms")

    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            raise RuntimeError("worker pool already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="service-tick-pool", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the scheduler; idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():  # pragma: no cover - watchdog only
                raise RuntimeError("tick worker failed to stop")
            self._thread = None

    # ------------------------------------------------------------------

    def _apply_pending_ops(self, record) -> None:
        """Apply queued joins/leaves at the tick boundary."""
        for op, client in self.registry.take_pending_ops(record):
            try:
                if op == "join":
                    record.driver.join(client)
                else:
                    record.driver.leave(client)
            except Exception as error:  # membership must never kill a tick
                self.registry.metrics.counter("service.membership.errors").inc()
                self.registry._audit_event(
                    "membership_error", record.session_id, f"{op} {client}: {error}"
                )

    def _note_tick(self, record, elapsed: float) -> None:
        record.frames_ticked = record.driver.frames_ticked
        record.tick_seconds += elapsed
        self._tick_ms.observe(elapsed * 1e3)
        self.registry.metrics.counter("service.ticks").inc()

    def run_round(self) -> int:
        """One scheduling round; returns how many sessions ticked.

        The scheduler thread's loop body; the fleet and tests call it
        to advance the media plane one frame on their own thread.
        """
        for record in self.registry.draining_records():
            self.registry.reap(record)
        records = self.registry.running_records()
        if not records:
            return 0
        for record in records:
            self._apply_pending_ops(record)
        self.rounds += 1
        generators = []
        for record in records:
            driver = record.driver
            frame = self.source.capture(driver.frames_ticked)
            generators.append(
                _guarded_steps(
                    driver,
                    frame,
                    driver.frames_ticked / FPS,
                    record.target_rate_bps,
                    HORIZON_S,
                )
            )
        outcome = self.plane.run_lockstep(generators)
        for record, error, elapsed in zip(records, outcome.values, outcome.elapsed):
            if error is not None:
                self.registry.mark_failed(record, error)
            else:
                self._note_tick(record, elapsed)
        return len(records)

    def _run(self) -> None:
        while not self._stop.is_set():
            started = perf_counter()
            try:
                ticked = self.run_round()
            except Exception as error:  # pragma: no cover - belt and braces
                # A round-level failure (e.g. the capture source itself
                # broke) must not kill the scheduler thread; count it
                # and keep serving the sessions that still work.
                self.registry.metrics.counter("service.round.errors").inc()
                self.registry._audit_event("round_error", "-", repr(error))
                ticked = 0
            if ticked == 0:
                self._stop.wait(_IDLE_SLEEP_S)
                continue
            if self.tick_interval_s > 0.0:
                budget = self.tick_interval_s - (perf_counter() - started)
                if budget > 0:
                    # A wait on the stop event, not a sleep: stop()
                    # returns mid-pace.
                    self._stop.wait(budget)
