"""Session registry: lifecycle states, membership truth, audit log.

The control plane's single source of truth.  Every conferencing
session the service hosts is one :class:`SessionRecord` owned by the
:class:`SessionRegistry`; HTTP routes and the tick worker pool only
ever talk to sessions through it.

Lifecycle (one-way)::

    creating ──> running ──> draining ──> dead
        └──────────────────────┘

- **creating**: the record exists and has an id, but the media driver
  (sender, SFU node, downlinks) is still being built.  A kill arriving
  now wins the race: the create path observes the state flip and
  closes the freshly built driver instead of publishing it.
- **running**: the worker pool ticks the session every scheduling
  round; joins and leaves are accepted.
- **draining**: no more ticks; the worker pool reaps the record at the
  next boundary (closing its driver) and moves it to dead.
  Both an operator ``kill`` and a crash mid-tick land here -- a broken
  session *degrades* into draining, it never takes the service down.
- **dead**: terminal.  ``stats`` keeps answering (a dead session's
  byte counters and error are exactly what an operator asks for), so
  clients polling a killed conference get 200 + ``state: dead``, not
  a 500.

Membership bookkeeping is registry-side (enqueue-time truth) while the
media-side joins/leaves are applied by the *worker* at the next tick
boundary through each record's op mailbox -- the control plane never
touches a driver concurrently with the tick loop, so drivers need no
locks of their own.

Every transition, join, leave, and failure appends to a bounded audit
log (the ``/audit`` route) and bumps ``service.*`` metrics.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.config import FPS

__all__ = [
    "CREATING",
    "RUNNING",
    "DRAINING",
    "DEAD",
    "LifecycleError",
    "SessionNotFound",
    "SessionRecord",
    "SessionRegistry",
]

CREATING = "creating"
RUNNING = "running"
DRAINING = "draining"
DEAD = "dead"

STATES = (CREATING, RUNNING, DRAINING, DEAD)

# Legal state transitions; everything else is a programming error.
_TRANSITIONS = {
    CREATING: {RUNNING, DRAINING, DEAD},
    RUNNING: {DRAINING},
    DRAINING: {DEAD},
    DEAD: set(),
}

# Audit log bound: enough for a full load-generator run without
# growing without bound on a long-lived service.
_AUDIT_LIMIT = 50_000

# The driver counters a session's stats report; copied onto the record
# when the driver is reaped, so the closed driver can be dropped.
_DRIVER_COUNTS = ("uplink_bytes", "downlink_bytes", "receiver_frames")


class LifecycleError(RuntimeError):
    """An operation arrived in a state that cannot accept it."""


class SessionNotFound(KeyError):
    """No session with that id was ever created."""


@dataclass
class SessionRecord:
    """One hosted conference: lifecycle state + driver + bookkeeping."""

    session_id: str
    state: str
    scheme: str
    target_rate_bps: float
    seed: int
    created_at_s: float
    driver: object | None = None
    error: str | None = None
    frames_ticked: int = 0
    tick_seconds: float = 0.0
    joins: int = 0
    leaves: int = 0
    # Registry-side membership truth (enqueue time).  The driver's
    # roster follows by at most one tick boundary.
    clients: set = field(default_factory=set)
    # Membership ops awaiting application at the next tick boundary:
    # ("join"|"leave", client_name).
    pending_ops: list = field(default_factory=list)
    # The driver's final counters, kept after reap drops the driver.
    final_counts: dict = field(default_factory=lambda: dict.fromkeys(_DRIVER_COUNTS, 0))

    def driver_counts(self) -> dict:
        """The live driver's counters, or the final ones once reaped."""
        if self.driver is None:
            return dict(self.final_counts)
        return {name: getattr(self.driver, name) for name in _DRIVER_COUNTS}

    def stats(self) -> dict:
        """JSON stats payload; field names mirror ``SessionReport``
        (``scheme``, ``duration_s``, ``fps_target``) so dashboards can
        treat service sessions and offline reports uniformly."""
        return {
            "session": self.session_id,
            "state": self.state,
            "scheme": self.scheme,
            "target_rate_bps": self.target_rate_bps,
            "seed": self.seed,
            "created_at_s": self.created_at_s,
            "frames_ticked": self.frames_ticked,
            "duration_s": self.frames_ticked / FPS,
            "fps_target": FPS,
            "tick_ms_mean": (
                1e3 * self.tick_seconds / self.frames_ticked
                if self.frames_ticked
                else 0.0
            ),
            "clients": sorted(self.clients),
            "joins": self.joins,
            "leaves": self.leaves,
            "pending_ops": len(self.pending_ops),
            **self.driver_counts(),
            "error": self.error,
        }


class SessionRegistry:
    """Thread-safe owner of every session record.

    ``factory`` builds media drivers: a callable
    ``factory(seed, receivers) -> driver``
    where the driver exposes the :class:`~repro.sfu.conference.
    ConferenceDriver` surface (``join``/``leave``/``tick``/
    ``tick_steps``/``close``).  Driver construction happens *outside*
    the registry lock -- it renders and encodes nothing but does build
    encoder state, and create must not block joins to other sessions.
    """

    def __init__(self, factory, metrics=None, clock=time.monotonic,
                 max_clients_per_session: int = 64) -> None:
        from repro.obs.metrics import MetricsRegistry

        self._factory = factory
        self._clock = clock
        self._lock = threading.Lock()
        self._records: dict[str, SessionRecord] = {}
        self._serial = itertools.count()
        self._audit: deque = deque(maxlen=_AUDIT_LIMIT)
        self._audit_serial = itertools.count()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_clients_per_session = max_clients_per_session
        self._started_at = clock()

    # ------------------------------------------------------------------
    # Audit + metrics plumbing
    # ------------------------------------------------------------------

    def _audit_event(self, event: str, session_id: str, detail: str = "") -> None:
        self._audit.append(
            {
                "seq": next(self._audit_serial),
                "t_s": round(self._clock() - self._started_at, 6),
                "event": event,
                "session": session_id,
                "detail": detail,
            }
        )
        self.metrics.counter(f"service.audit.{event}").inc()

    def audit_log(self, limit: int = 100) -> list[dict]:
        """The most recent ``limit`` audit entries, oldest first."""
        with self._lock:
            entries = list(self._audit)
        return entries[max(0, len(entries) - limit):]

    def _set_state(self, record: SessionRecord, state: str, detail: str = "") -> None:
        """Transition under the caller's lock; illegal moves raise."""
        if state not in _TRANSITIONS[record.state]:
            raise LifecycleError(
                f"session {record.session_id}: illegal transition "
                f"{record.state} -> {state}"
            )
        record.state = state
        self._audit_event(state, record.session_id, detail)

    # ------------------------------------------------------------------
    # Control-plane operations (HTTP routes call these)
    # ------------------------------------------------------------------

    def create(self, receivers: int = 0, seed: int | None = None,
               scheme: str = "livo-2m", target_rate_bps: float = 2e6,
               initial_clients: list[str] | None = None) -> SessionRecord:
        """Create a session; blocks until running (or dead if killed).

        The record is published in ``creating`` first, so a concurrent
        ``kill`` can target it; the driver is built outside the lock;
        the final transition honors any kill that raced in.  A factory
        that raises leaves the record dead with ``error`` set, never
        stuck in ``creating``.  More clients than the cap raise ValueError.
        """
        wanted = len(initial_clients) if initial_clients else receivers
        if wanted > self.max_clients_per_session:
            raise ValueError(f"{wanted} clients exceed the cap of {self.max_clients_per_session}")
        with self._lock:
            index = next(self._serial)
            session_id = f"s{index:05d}"
            record = SessionRecord(
                session_id=session_id,
                state=CREATING,
                scheme=scheme,
                target_rate_bps=float(target_rate_bps),
                seed=seed if seed is not None else index,
                created_at_s=self._clock() - self._started_at,
            )
            self._records[session_id] = record
            self._audit_event(CREATING, session_id, f"scheme={scheme}")
        names = list(initial_clients or [f"{session_id}r{j}" for j in range(receivers)])
        try:
            driver = self._factory(seed=record.seed, receivers=names)
        except Exception as error:  # noqa: BLE001 -- the record must not stay creating
            with self._lock:
                record.error = f"{type(error).__name__}: {error}"
                self._set_state(record, DEAD, record.error)
            return record
        with self._lock:
            if record.state == CREATING:
                record.driver = driver
                record.clients.update(names)
                record.joins += len(names)
                self._set_state(record, RUNNING)
                self.metrics.counter("service.sessions.created").inc()
                return record
        # A kill raced the build: we own an unpublished driver.  Close
        # it here (we are off the worker thread, nothing ticks it) and
        # finish the kill.
        driver.close()
        with self._lock:
            if record.state == DRAINING:
                self._set_state(record, DEAD, "killed during create")
            self.metrics.counter("service.sessions.killed_in_create").inc()
        return record

    def get(self, session_id: str) -> SessionRecord:
        with self._lock:
            record = self._records.get(session_id)
        if record is None:
            raise SessionNotFound(session_id)
        return record

    def join(self, session_id: str, client: str) -> dict:
        """Queue a client join; applied at the next tick boundary."""
        record = self.get(session_id)
        with self._lock:
            if record.state != RUNNING:
                raise LifecycleError(
                    f"session {session_id} is {record.state}, not joinable"
                )
            if client in record.clients:
                raise ValueError(f"client {client!r} already in {session_id}")
            if len(record.clients) >= self.max_clients_per_session:
                raise LifecycleError(f"session {session_id} is full")
            record.clients.add(client)
            record.joins += 1
            record.pending_ops.append(("join", client))
            self._audit_event("join", session_id, client)
        self.metrics.counter("service.joins").inc()
        return {"session": session_id, "client": client, "queued": True}

    def leave(self, session_id: str, client: str) -> dict:
        """Queue a client leave; applied at the next tick boundary."""
        record = self.get(session_id)
        with self._lock:
            if record.state not in (RUNNING, DRAINING):
                raise LifecycleError(
                    f"session {session_id} is {record.state}; nothing to leave"
                )
            if client not in record.clients:
                raise ValueError(f"client {client!r} not in {session_id}")
            record.clients.discard(client)
            record.leaves += 1
            if record.state == RUNNING:
                record.pending_ops.append(("leave", client))
            self._audit_event("leave", session_id, client)
        self.metrics.counter("service.leaves").inc()
        return {"session": session_id, "client": client, "queued": True}

    def kill(self, session_id: str) -> SessionRecord:
        """Request teardown; idempotent.  The worker pool reaps it."""
        record = self.get(session_id)
        with self._lock:
            if record.state in (DRAINING, DEAD):
                return record
            self._set_state(record, DRAINING, "killed")
            self.metrics.counter("service.sessions.killed").inc()
        return record

    def mark_failed(self, record: SessionRecord, error: BaseException) -> None:
        """A tick crashed: degrade the session, never the service."""
        with self._lock:
            if record.state in (DRAINING, DEAD):
                return
            record.error = f"{type(error).__name__}: {error}"
            self._set_state(record, DRAINING, record.error)
        self.metrics.counter("service.tick.errors").inc()
        self.metrics.counter("service.sessions.failed").inc()

    def stats(self, session_id: str) -> dict:
        record = self.get(session_id)
        with self._lock:
            return record.stats()

    def list_sessions(self) -> list[dict]:
        with self._lock:
            return [
                {"session": r.session_id, "state": r.state, "scheme": r.scheme,
                 "clients": len(r.clients), "frames_ticked": r.frames_ticked}
                for r in self._records.values()
            ]

    def counts(self) -> dict:
        """Sessions per state (healthz payload)."""
        with self._lock:
            tally = dict.fromkeys(STATES, 0)
            for record in self._records.values():
                tally[record.state] += 1
        return tally

    # ------------------------------------------------------------------
    # Worker-pool side
    # ------------------------------------------------------------------

    def running_records(self) -> list[SessionRecord]:
        """Records the next tick round should advance (id order)."""
        with self._lock:
            return [
                record
                for record in self._records.values()
                if record.state == RUNNING
            ]

    def draining_records(self) -> list[SessionRecord]:
        with self._lock:
            return [
                record
                for record in self._records.values()
                if record.state == DRAINING
            ]

    def take_pending_ops(self, record: SessionRecord) -> list[tuple]:
        """Drain a record's membership mailbox (tick boundary)."""
        with self._lock:
            ops, record.pending_ops = record.pending_ops, []
        return ops

    def reap(self, record: SessionRecord) -> None:
        """Close a draining session's driver and finalize it.

        The record keeps the driver's final counters, not the driver: a
        dead record lives as long as the service does.
        """
        with self._lock:
            if record.state != DRAINING:
                return
        if record.driver is not None:
            record.driver.close()
        with self._lock:
            record.final_counts = record.driver_counts()
            record.driver = None
            self._set_state(record, DEAD)
        self.metrics.counter("service.sessions.reaped").inc()

    def live_drivers(self) -> int:
        """Drivers not yet closed -- the leak gauge shutdown asserts on."""
        with self._lock:
            return sum(
                1
                for record in self._records.values()
                if record.driver is not None and not record.driver.closed
            )

    def close(self) -> None:
        """Kill and reap everything (service shutdown)."""
        with self._lock:
            records = list(self._records.values())
        for record in records:
            with self._lock:
                if record.state in (CREATING, RUNNING):
                    self._set_state(record, DRAINING, "service shutdown")
            self.reap(record)
