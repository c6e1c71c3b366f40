"""The service application: config, session factory, routes, wiring.

``ServiceApp`` composes the control plane (:class:`~repro.service.
registry.SessionRegistry` + REST-ish routes), the media plane
(:class:`~repro.service.workers.TickWorkerPool` over shared capture /
kernel caches), and observability (one
:class:`~repro.obs.metrics.MetricsRegistry` feeding ``/metrics``, an
audit log feeding ``/audit``).

Routes (JSON both ways)::

    GET  /healthz                      liveness + session state tally
    GET  /metrics                      the metrics registry, rendered
    GET  /audit?limit=N                recent lifecycle/audit events
    POST /v1/sessions                  create  {receivers|clients, scheme, seed}
    GET  /v1/sessions                  list
    GET  /v1/sessions/<id>             record summary
    GET  /v1/sessions/<id>/stats       full stats (SessionReport-shaped)
    POST /v1/sessions/<id>/join        {client}
    POST /v1/sessions/<id>/leave       {client}
    POST /v1/sessions/<id>/kill        drain + reap

Error mapping: unknown session -> 404, wrong lifecycle state -> 409,
duplicate/unknown client -> 409/404, bad JSON, a create body out of
range or a driver build that raises -> 400.  A session whose worker
crashed answers ``stats`` with 200 + ``state: dead`` -- sessions
degrade; routes never 500 for media failures.

``ServiceHandle`` runs the whole stack on a background thread with its
own event loop so the CLI, tests, and the end-to-end benchmark share
one start/stop path.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass

from repro.capture.dataset import video_names
from repro.core.config import SessionConfig
from repro.service.http import HttpError, HttpRequest, HttpServer
from repro.service.registry import (
    LifecycleError,
    SessionNotFound,
    SessionRegistry,
)
from repro.service.workers import TickWorkerPool
from repro.sfu.room import Room

__all__ = ["ServiceConfig", "SessionFactory", "ServiceApp", "ServiceHandle", "SCHEME_RATES"]

# The "mixed schemes" the control plane accepts: LiVo sessions pinned
# at different encode-rate tiers.  The label rides the session record
# (and the load generator mixes them); the number is the per-tick
# target the worker passes to the driver.
SCHEME_RATES = {
    "livo-1m": 1e6,
    "livo-2m": 2e6,
    "livo-4m": 4e6,
}

# Every hosted rig and link.  The atlas embeds a 64-px sequence marker,
# so cameras must tile to >= 64 px across: 2 x 32 is the cheapest.
CAMERA_WIDTH = 32
CAMERA_HEIGHT = 16
GOP_SIZE = 4
DOWNLINK_MBPS = 4.0
SAMPLE_BUDGET = 600       # scene samples per capture
POSE_TRACE_FRAMES = 300   # frames in each receiver's (looping) pose trace


def _is_int(value) -> bool:
    """A JSON integer: ``true`` / ``false`` parse to bools, not ints."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of the hosted sessions and of the service itself."""

    host: str = "127.0.0.1"
    port: int = 0                   # 0 = pick a free port
    video: str = "office1"
    num_cameras: int = 2
    seed: int = 0
    tick_interval_s: float = 0.0    # 0 = free-running (benchmark mode)
    max_clients_per_session: int = 64
    max_sessions: int = 4096

    def __post_init__(self) -> None:
        if self.tick_interval_s < 0:
            raise ValueError("tick_interval_s must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_clients_per_session < 1 or self.max_sessions < 1:
            raise ValueError("max_clients_per_session/max_sessions must be >= 1")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in 0-65535")
        if self.video not in video_names():
            raise ValueError(f"unknown video {self.video!r}; one of {video_names()}")
        self.session_config()  # camera count, rig layout and budget raise here

    def session_config(self) -> SessionConfig:
        """The config every hosted session runs under."""
        return SessionConfig(
            num_cameras=self.num_cameras, camera_width=CAMERA_WIDTH,
            camera_height=CAMERA_HEIGHT, scene_sample_budget=SAMPLE_BUDGET,
            gop_size=GOP_SIZE,
        )


# The registry's session factory is the service's room, shared by every
# session: its source memoizes finished frames, so 98 % of the
# ``service_churn`` benchmark's captures are memo hits.  The name stays
# for benchmarks/e2e/spans.py, which times ``SessionFactory.__call__``.
SessionFactory = Room


class ServiceApp:
    """Registry + worker pool + route table behind one handler."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.factory = SessionFactory(
            self.config.session_config(), self.config.video,
            POSE_TRACE_FRAMES, DOWNLINK_MBPS, self.config.seed,
        )
        self.registry = SessionRegistry(
            self.factory,
            metrics=self.metrics,
            max_clients_per_session=self.config.max_clients_per_session,
        )
        self.pool = TickWorkerPool(
            self.registry,
            self.factory.source,
            tick_interval_s=self.config.tick_interval_s,
        )
        self._started_at = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start_workers(self) -> None:
        import time

        self._started_at = time.monotonic()
        self.pool.start()

    def close(self) -> None:
        """Stop ticking, drain every session, release every worker."""
        self.pool.stop()
        self.registry.close()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def handle(self, request: HttpRequest) -> tuple[int, dict]:
        """Route one request; the HttpServer calls this on pool threads."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if path == "/metrics" and method == "GET":
            return 200, self._metrics()
        if path == "/audit" and method == "GET":
            limit = request.query.get("limit", "100")
            if not (limit.isascii() and limit.isdigit()):
                raise HttpError(400, "limit must be a non-negative integer")
            return 200, {"events": self.registry.audit_log(limit=int(limit))}
        if path == "/v1/sessions":
            if method == "POST":
                return self._create(request)
            if method == "GET":
                return 200, {"sessions": self.registry.list_sessions()}
            raise HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/v1/sessions/"):
            return self._session_route(method, path, request)
        raise HttpError(404, f"no route for {method} {path}")

    def _healthz(self) -> tuple[int, dict]:
        import time

        counts = self.registry.counts()
        payload = {
            "status": "ok" if self.pool.running else "degraded",
            "sessions": counts,
            "worker_rounds": self.pool.rounds,
            "uptime_s": (
                round(time.monotonic() - self._started_at, 3)
                if self._started_at is not None
                else 0.0
            ),
        }
        self.metrics.gauge("service.sessions.running").set(counts["running"])
        return (200 if self.pool.running else 503), payload

    def _metrics(self) -> dict:
        """The registry plus the shared source's frame-memo tally
        (``cache.capture_frames.{hits,misses,hit_rate}``), read live."""
        from repro.obs.metrics import MetricsRegistry

        memo = MetricsRegistry()
        self.factory.source.frame_counters.metrics_into(memo)
        return {**self.metrics.to_dict(), **memo.to_dict()}

    def _create(self, request: HttpRequest) -> tuple[int, dict]:
        body = request.json()
        scheme = body.get("scheme", "livo-2m")
        if scheme not in SCHEME_RATES:
            raise HttpError(
                400, f"unknown scheme {scheme!r}; one of {sorted(SCHEME_RATES)}"
            )
        cap = self.config.max_clients_per_session
        receivers = body.get("receivers", 0)
        if not _is_int(receivers) or not 0 <= receivers <= cap:
            raise HttpError(400, f"receivers must be an integer in [0, {cap}]")
        seed = body.get("seed")
        if seed is not None and not _is_int(seed):
            raise HttpError(400, "seed must be an integer or null")
        clients = body.get("clients")
        if clients is not None and not (
            isinstance(clients, list)
            and all(isinstance(name, str) for name in clients)
            and len(set(clients)) == len(clients) <= cap
        ):
            raise HttpError(
                400, f"clients must be a list of at most {cap} distinct strings"
            )
        counts = self.registry.counts()
        if sum(counts.values()) - counts["dead"] >= self.config.max_sessions:
            raise HttpError(503, "session capacity reached")
        record = self.registry.create(
            receivers=receivers,
            seed=seed,
            scheme=scheme,
            target_rate_bps=SCHEME_RATES[scheme],
            initial_clients=clients,
        )
        payload = {"session": record.session_id, "state": record.state}
        if record.error is not None:       # the driver build raised
            return 400, {**payload, "error": record.error}
        return (201 if record.state == "running" else 410), payload

    def _session_route(self, method: str, path: str,
                       request: HttpRequest) -> tuple[int, dict]:
        parts = path.split("/")  # ['', 'v1', 'sessions', id, (action)]
        session_id = parts[3]
        action = parts[4] if len(parts) > 4 else None
        try:
            if action is None and method == "GET":
                return 200, self.registry.stats(session_id)
            if action == "stats" and method == "GET":
                return 200, self.registry.stats(session_id)
            if action == "join" and method == "POST":
                client = self._client_name(request)
                return 200, self.registry.join(session_id, client)
            if action == "leave" and method == "POST":
                client = self._client_name(request)
                return 200, self.registry.leave(session_id, client)
            if action == "kill" and method == "POST":
                record = self.registry.kill(session_id)
                return 202, {"session": session_id, "state": record.state}
        except SessionNotFound as error:
            raise HttpError(404, f"no session {session_id}") from error
        except LifecycleError as error:
            raise HttpError(409, str(error)) from error
        except ValueError as error:
            raise HttpError(409, str(error)) from error
        raise HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _client_name(request: HttpRequest) -> str:
        client = request.json().get("client")
        if not isinstance(client, str) or not client:
            raise HttpError(400, "body must carry a non-empty 'client' string")
        return client


class ServiceHandle:
    """The full service running on a background thread's event loop.

    The one start/stop path shared by ``repro serve``, the end-to-end
    benchmark, and the tests::

        handle = ServiceHandle(ServiceConfig())
        handle.start()            # workers + HTTP listener
        ... drive http://handle.host:handle.port ...
        handle.stop()             # drains sessions, joins every thread
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.app = ServiceApp(self.config)
        self.host = self.config.host
        self.port = self.config.port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: HttpServer | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 30.0) -> "ServiceHandle":
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=self._run, name="service-http-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("service startup failed") from self._startup_error
        self.app.start_workers()
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._server = HttpServer(
            self.app.handle,
            host=self.config.host,
            port=self.config.port,
            metrics=self.app.metrics,
        )
        try:
            loop.run_until_complete(self._server.start())
        except BaseException as error:  # port in use, bad host, ...
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self.port = self._server.port
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self._server.aclose())
            loop.close()

    def stop(self) -> None:
        """Stop HTTP, drain sessions, join threads; idempotent."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None
        self.app.close()

    def __enter__(self) -> "ServiceHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
