"""Session service: registry lifecycle, worker pool, HTTP, loadgen.

Covers ISSUE 10's service-layer checklist: lifecycle transitions,
concurrent create/kill races, stats consistency with the
SessionReport naming, load-generator determinism, and graceful
degradation when a session crashes mid-tick (degrade, never 500).
Plus the fleet teardown regression the refactor fixed.
"""

from __future__ import annotations

import asyncio
import gc
import importlib.util
import json
import socket
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.service.registry import (
    CREATING,
    DEAD,
    DRAINING,
    RUNNING,
    LifecycleError,
    SessionNotFound,
    SessionRegistry,
)


class _FakeDriver:
    """Stands in for ConferenceDriver: same surface, no media stack."""

    def __init__(self, fail_at: int | None = None) -> None:
        self.receivers: set[str] = set()
        self.frames_ticked = 0
        self.uplink_bytes = 0
        self.downlink_bytes = 0
        self.receiver_frames = 0
        self._closed = False
        self.fail_at = fail_at

    def join(self, name: str) -> None:
        if name in self.receivers:
            raise ValueError(f"duplicate receiver {name}")
        self.receivers.add(name)

    def leave(self, name: str) -> None:
        self.receivers.remove(name)

    def tick_steps(self, frame, now, target_rate_bps, horizon_s):
        """The pool's only entry point: a generator with no kernel jobs."""
        if self.fail_at is not None and self.frames_ticked >= self.fail_at:
            raise RuntimeError("injected tick failure")
        self.frames_ticked += 1
        self.uplink_bytes += 100
        self.downlink_bytes += 50 * len(self.receivers)
        self.receiver_frames += len(self.receivers)
        return
        yield  # pragma: no cover - generator shape only

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True


class _FakeSource:
    def capture(self, sequence: int):
        return ("frame", sequence)


def _fake_factory(fail_at=None):
    built = []

    def factory(seed, receivers):
        driver = _FakeDriver(fail_at=fail_at)
        for name in receivers:
            driver.join(name)
        built.append(driver)
        return driver

    factory.built = built
    return factory


def _registry(**kwargs):
    return SessionRegistry(_fake_factory(), **kwargs)


def _pool(registry, **kwargs):
    from repro.service.workers import TickWorkerPool

    return TickWorkerPool(registry, _FakeSource(), **kwargs)


class TestRegistryLifecycle:
    def test_create_publishes_running_record(self):
        registry = _registry()
        record = registry.create(receivers=2, scheme="livo-1m")
        assert record.state == RUNNING
        assert record.session_id == "s00000"
        assert record.clients == {"s00000r0", "s00000r1"}
        assert record.driver.receivers == record.clients
        assert registry.counts()["running"] == 1

    def test_kill_then_reap_walks_draining_to_dead(self):
        registry = _registry()
        record = registry.create(receivers=1)
        registry.kill(record.session_id)
        assert record.state == DRAINING
        registry.kill(record.session_id)  # idempotent
        assert record.state == DRAINING
        driver = record.driver
        registry.reap(record)
        assert record.state == DEAD
        assert driver.closed
        assert record.driver is None  # the record does not pin it
        assert registry.live_drivers() == 0

    def test_illegal_transitions_raise(self):
        registry = _registry()
        record = registry.create(receivers=1)
        with pytest.raises(LifecycleError):
            registry._set_state(record, CREATING)
        registry.kill(record.session_id)
        registry.reap(record)
        with pytest.raises(LifecycleError):
            registry._set_state(record, RUNNING)

    def test_join_and_leave_only_in_legal_states(self):
        registry = _registry()
        record = registry.create(receivers=1)
        registry.join(record.session_id, "alice")
        with pytest.raises(ValueError):
            registry.join(record.session_id, "alice")  # duplicate
        with pytest.raises(ValueError):
            registry.leave(record.session_id, "nobody")
        registry.kill(record.session_id)
        with pytest.raises(LifecycleError):
            registry.join(record.session_id, "bob")
        # Leaving a draining session is allowed (client cleanup).
        registry.leave(record.session_id, "alice")
        registry.reap(record)
        with pytest.raises(LifecycleError):
            registry.leave(record.session_id, "s00000r0")

    def test_unknown_session_raises_not_found(self):
        registry = _registry()
        with pytest.raises(SessionNotFound):
            registry.stats("s99999")
        with pytest.raises(SessionNotFound):
            registry.kill("s99999")

    def test_session_full_rejects_joins(self):
        registry = _registry(max_clients_per_session=2)
        record = registry.create(receivers=2)
        with pytest.raises(LifecycleError):
            registry.join(record.session_id, "overflow")

    def test_audit_log_records_the_story(self):
        registry = _registry()
        record = registry.create(receivers=1)
        registry.join(record.session_id, "alice")
        registry.kill(record.session_id)
        registry.reap(record)
        events = [entry["event"] for entry in registry.audit_log()]
        assert events == ["creating", "running", "join", "draining", "dead"]

    def test_close_tears_everything_down(self):
        registry = _registry()
        for _ in range(3):
            registry.create(receivers=1)
        registry.close()
        assert registry.counts() == {
            "creating": 0, "running": 0, "draining": 0, "dead": 3,
        }
        assert registry.live_drivers() == 0


class TestCreateKillRaces:
    def test_kill_during_create_closes_the_unpublished_driver(self):
        """A kill landing while the driver is being built must win."""
        release = threading.Event()
        built = []

        def slow_factory(seed, receivers):
            release.wait(5.0)
            driver = _FakeDriver()
            built.append(driver)
            return driver

        registry = SessionRegistry(slow_factory)
        result = {}

        def create():
            result["record"] = registry.create(receivers=1)

        thread = threading.Thread(target=create)
        thread.start()
        # The record is published in ``creating`` before the build.
        for _ in range(100):
            if registry.counts()["creating"]:
                break
            threading.Event().wait(0.01)
        session_id = registry.audit_log()[0]["session"]
        registry.kill(session_id)
        release.set()
        thread.join(5.0)
        record = result["record"]
        assert record.state == DEAD
        assert built and built[0].closed
        assert registry.live_drivers() == 0

    def test_failed_build_leaves_a_dead_record_not_a_creating_one(self):
        """A factory that raises must not strand the record in
        ``creating``, where it would count against capacity forever."""
        registry = _registry()
        record = registry.create(initial_clients=["a", "a"])   # the driver rejects the twin
        assert record.state == DEAD
        assert record.error == "ValueError: duplicate receiver a"
        assert registry.counts() == {"creating": 0, "running": 0, "draining": 0, "dead": 1}
        assert [entry["event"] for entry in registry.audit_log()] == ["creating", "dead"]
        assert registry.audit_log()[-1]["detail"] == record.error
        assert registry.create(receivers=1).state == RUNNING

    def test_concurrent_creates_and_kills_never_corrupt(self):
        registry = _registry()
        errors = []

        def churn(worker):
            try:
                for _ in range(10):
                    record = registry.create(receivers=1)
                    registry.kill(record.session_id)
                    registry.reap(record)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=churn, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert errors == []
        counts = registry.counts()
        assert counts["dead"] == 40
        assert counts["running"] == counts["draining"] == 0
        assert registry.live_drivers() == 0


class TestWorkerPool:
    def test_round_ticks_running_sessions(self):
        registry = _registry()
        pool = _pool(registry)
        a = registry.create(receivers=1)
        b = registry.create(receivers=2)
        assert pool.run_round() == 2
        assert a.frames_ticked == b.frames_ticked == 1
        assert registry.metrics.get("service.ticks").value == 2
        assert registry.metrics.get("service.tick_ms").count == 2
        pool.stop()

    def test_membership_ops_apply_at_tick_boundary(self):
        registry = _registry()
        pool = _pool(registry)
        record = registry.create(receivers=1)
        registry.join(record.session_id, "alice")
        # Queued, not yet applied to the driver.
        assert "alice" not in record.driver.receivers
        pool.run_round()
        assert "alice" in record.driver.receivers
        registry.leave(record.session_id, "alice")
        pool.run_round()
        assert "alice" not in record.driver.receivers
        pool.stop()

    def test_crashed_session_degrades_without_stopping_others(self):
        factory = _fake_factory()

        def mixed_factory(seed, receivers):
            driver = _FakeDriver(fail_at=2 if seed == 0 else None)
            factory.built.append(driver)
            return driver

        registry = SessionRegistry(mixed_factory)
        pool = _pool(registry)
        doomed = registry.create()
        healthy = registry.create()
        for _ in range(4):
            pool.run_round()
        assert doomed.state == DEAD            # failed, drained, reaped
        assert doomed.error is not None
        assert "injected tick failure" in doomed.error
        assert factory.built[0].closed
        assert healthy.state == RUNNING
        assert healthy.frames_ticked == 4
        # Stats still answer for the dead session (degrade, not 500).
        stats = registry.stats(doomed.session_id)
        assert stats["state"] == "dead"
        assert stats["error"] == doomed.error
        pool.stop()

    def test_batch_plane_isolates_a_crashing_generator(self):
        registry = SessionRegistry(
            lambda seed, receivers: _FakeDriver(fail_at=0 if seed == 0 else None)
        )
        pool = _pool(registry)
        doomed = registry.create()
        healthy = registry.create()
        pool.run_round()
        assert doomed.state == DRAINING
        assert healthy.frames_ticked == 1
        pool.stop()

    def test_single_session_round_is_guarded_too(self):
        """One due session is still a lockstep round: it ticks, and its
        crash becomes a failed session, not a raised round."""
        registry = SessionRegistry(
            lambda seed, receivers: _FakeDriver(fail_at=1)
        )
        pool = _pool(registry)
        only = registry.create()
        assert pool.run_round() == 1
        assert only.frames_ticked == 1
        assert registry.metrics.get("service.tick_ms").count == 1
        assert pool.run_round() == 1          # raises inside the generator
        assert only.state == DRAINING
        assert "injected tick failure" in only.error
        pool.stop()

    def test_scheduler_thread_ticks_and_stops_cleanly(self):
        registry = _registry()
        pool = _pool(registry)
        record = registry.create(receivers=1)
        pool.start()
        for _ in range(200):
            if record.frames_ticked >= 3:
                break
            threading.Event().wait(0.01)
        pool.stop()
        assert record.frames_ticked >= 3
        assert not pool.running
        pool.stop()  # idempotent

    def test_stop_on_an_idle_pool_returns_promptly(self, monkeypatch):
        """The idle wait is the stop event's: stop() ends it at once,
        however long the idle sleep."""
        from repro.service import workers

        monkeypatch.setattr(workers, "_IDLE_SLEEP_S", 60.0)
        pool = _pool(_registry())
        pool.start()
        threading.Event().wait(0.05)          # the thread is in its idle wait
        started = time.perf_counter()
        pool.stop(timeout=30.0)
        assert time.perf_counter() - started < 5.0
        assert not pool.running and pool.rounds == 0

    def test_stop_during_a_pacing_wait_returns_promptly(self):
        """The pacing wait between rounds is the stop event's too: with
        an hour between rounds, stop() still returns at once."""
        registry = _registry()
        pool = _pool(registry, tick_interval_s=3600.0)
        record = registry.create(receivers=1)
        pool.start()
        for _ in range(200):
            if record.frames_ticked >= 1:
                break
            threading.Event().wait(0.01)
        threading.Event().wait(0.05)          # the thread is in its pacing wait
        started = time.perf_counter()
        pool.stop(timeout=5.0)
        assert time.perf_counter() - started < 5.0
        assert record.frames_ticked == 1 and not pool.running


class TestServiceConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", -3),
            ("max_clients_per_session", 0),
            ("max_sessions", 0),
            ("port", -1),
            ("port", 65536),
            # Would build, answer `running`, then die on the first tick
            # (the marker needs 64 px; one 32-px camera tiles to 32).
            ("num_cameras", 1),
            # Would raise a bare KeyError out of ServiceApp.
            ("video", "nope"),
            # Would kill the scheduler after its first round: no timed
            # wait takes longer than threading.TIMEOUT_MAX.
            ("tick_interval_s", float("inf")),
            ("tick_interval_s", float("nan")),
            ("tick_interval_s", 1e10),
            ("tick_interval_s", -0.5),
        ],
    )
    def test_unusable_value_rejected(self, field, value):
        # Each would leave a service whose every session is born dead or refused.
        from repro.service.app import ServiceConfig

        with pytest.raises(ValueError):
            ServiceConfig(**{field: value})

    def test_boundary_values_accepted(self):
        from repro.service.app import ServiceConfig

        ServiceConfig(seed=0, max_clients_per_session=1, max_sessions=1, port=65535)
        ServiceConfig(tick_interval_s=threading.TIMEOUT_MAX)


class TestStatsConsistency:
    def test_stats_mirror_session_report_fields(self):
        registry = _registry()
        pool = _pool(registry)
        record = registry.create(receivers=2, scheme="livo-4m")
        for _ in range(3):
            pool.run_round()
        stats = registry.stats(record.session_id)
        # The SessionReport vocabulary: scheme / duration_s / fps_target.
        assert stats["scheme"] == "livo-4m"
        assert stats["fps_target"] == 30.0
        assert stats["duration_s"] == pytest.approx(3 / 30.0)
        assert stats["frames_ticked"] == 3
        assert stats["uplink_bytes"] == record.driver.uplink_bytes
        assert stats["downlink_bytes"] == record.driver.downlink_bytes
        assert stats["receiver_frames"] == record.driver.receiver_frames
        assert stats["tick_ms_mean"] > 0.0
        assert stats["clients"] == sorted(record.clients)
        pool.stop()


class TestCapacity:
    def test_dead_sessions_free_their_slot_and_their_driver(self):
        """Capacity counts sessions that are not dead, and a reaped
        record keeps its final counts, not its closed driver."""
        from repro.service.app import ServiceApp, ServiceConfig
        from repro.service.http import HttpRequest

        app = ServiceApp(ServiceConfig(max_sessions=3))
        create = HttpRequest("POST", "/v1/sessions", body=b'{"receivers": 1}')
        try:
            ids = [app.handle(create)[1]["session"] for _ in range(3)]
            app.pool.run_round()
            drivers = [weakref.ref(app.registry.get(sid).driver) for sid in ids]
            uplink = [app.registry.stats(sid)["uplink_bytes"] for sid in ids]
            assert all(uplink)
            for sid in ids:
                app.handle(HttpRequest("POST", f"/v1/sessions/{sid}/kill"))
            app.pool.run_round()
            assert app.registry.counts()["dead"] == 3

            status, created = app.handle(create)
            assert (status, created["state"]) == (201, "running")
            gc.collect()
            assert [ref() for ref in drivers] == [None] * 3
            for sid, sent in zip(ids, uplink):
                status, stats = app.handle(HttpRequest("GET", f"/v1/sessions/{sid}/stats"))
                assert (status, stats["state"], stats["uplink_bytes"]) == (200, "dead", sent)
        finally:
            app.close()
        assert app.registry.live_drivers() == 0


class TestSharedCapture:
    def test_round_renders_each_distinct_sequence_once(self, monkeypatch):
        """Sessions created rounds apart tick different frame numbers;
        the shared source still renders each sequence exactly once."""
        from repro.service.app import ServiceApp, ServiceConfig
        from repro.service.http import HttpRequest

        app = ServiceApp(ServiceConfig())
        source = app.factory.source
        rendered = []
        render = source._render

        def counted(sequence):
            rendered.append(sequence)
            return render(sequence)

        monkeypatch.setattr(source, "_render", counted)
        create = HttpRequest("POST", "/v1/sessions", body=b'{"receivers": 1}')
        try:
            for rounds in (2, 1, 3):         # a new session every few rounds
                app.handle(create)
                for _ in range(rounds):
                    app.pool.run_round()
            ticked = [record.frames_ticked for record in app.registry.running_records()]
            assert sorted(ticked) == [3, 4, 6]
            assert rendered == list(range(6))
            status, metrics = app.handle(HttpRequest("GET", "/metrics"))
            assert status == 200
            assert metrics["cache.capture_frames.misses"]["value"] == 6
            assert metrics["cache.capture_frames.hits"]["value"] == sum(ticked) - 6
            assert metrics["cache.capture_frames.hit_rate"]["value"] == round(7 / 13, 4)
        finally:
            app.close()


class TestHttpLayer:
    def _serve(self, handler):
        from repro.service.http import HttpServer

        loop = asyncio.new_event_loop()
        server = HttpServer(handler)
        ready = threading.Event()

        def run():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(server.aclose())
                loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10.0)

        def stop():
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10.0)

        return server, stop

    def _request(self, server, method, path, payload=None):
        from repro.service.http import JsonClient

        async def go():
            client = JsonClient("127.0.0.1", server.port, pool=2)
            try:
                return await client.request(method, path, payload)
            finally:
                await client.aclose()

        return asyncio.run(go())

    def test_round_trip_and_error_mapping(self):
        from repro.service.http import HttpError

        def handler(request):
            if request.path == "/boom":
                raise RuntimeError("kaboom")
            if request.path == "/teapot":
                raise HttpError(409, "short and stout")
            return 200, {"echo": request.json(), "q": request.query}

        server, stop = self._serve(handler)
        try:
            status, payload = self._request(
                server, "POST", "/echo?x=1", {"a": [1, 2]}
            )
            assert status == 200
            assert payload == {"echo": {"a": [1, 2]}, "q": {"x": "1"}}
            status, payload = self._request(server, "GET", "/teapot")
            assert status == 409
            assert payload["error"] == "short and stout"
            # Handler bugs 500 but never kill the server.
            status, _ = self._request(server, "GET", "/boom")
            assert status == 500
            status, _ = self._request(server, "GET", "/echo")
            assert status == 200
        finally:
            stop()

    def test_keep_alive_reuses_one_connection(self):
        def handler(request):
            return 200, {}

        server, stop = self._serve(handler)
        try:
            from repro.service.http import JsonClient

            async def go():
                client = JsonClient("127.0.0.1", server.port, pool=1)
                for _ in range(5):
                    status, _ = await client.request("GET", "/")
                    assert status == 200
                count = len(client._all)
                await client.aclose()
                return count

            assert asyncio.run(go()) == 1
        finally:
            stop()


class TestServiceEndToEnd:
    """Full stack over HTTP with the real media drivers (tiny config)."""

    @pytest.fixture(scope="class")
    def handle(self):
        from repro.service.app import ServiceConfig, ServiceHandle

        config = ServiceConfig()
        with ServiceHandle(config) as handle:
            yield handle
        assert handle.app.registry.live_drivers() == 0

    def _request(self, handle, method, path, payload=None):
        from repro.service.http import JsonClient

        async def go():
            client = JsonClient(handle.host, handle.port, pool=2)
            try:
                return await client.request(method, path, payload)
            finally:
                await client.aclose()

        return asyncio.run(go())

    def test_session_life_over_http(self, handle):
        status, created = self._request(
            handle, "POST", "/v1/sessions",
            {"receivers": 2, "scheme": "livo-1m", "seed": 3},
        )
        assert status == 201
        session = created["session"]

        status, _ = self._request(
            handle, "POST", f"/v1/sessions/{session}/join", {"client": "alice"}
        )
        assert status == 200
        # Wait until the worker has ticked the session a few frames.
        for _ in range(500):
            _, stats = self._request(
                handle, "GET", f"/v1/sessions/{session}/stats"
            )
            if stats["frames_ticked"] >= 2:
                break
            threading.Event().wait(0.01)
        assert stats["frames_ticked"] >= 2
        assert stats["uplink_bytes"] > 0
        assert "alice" in stats["clients"]

        status, payload = self._request(
            handle, "POST", f"/v1/sessions/{session}/kill"
        )
        assert status == 202
        for _ in range(500):
            _, stats = self._request(
                handle, "GET", f"/v1/sessions/{session}/stats"
            )
            if stats["state"] == "dead":
                break
            threading.Event().wait(0.01)
        assert stats["state"] == "dead"

        status, health = self._request(handle, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, metrics = self._request(handle, "GET", "/metrics")
        assert status == 200 and "service.tick_ms" in metrics

    def test_error_statuses_over_http(self, handle):
        status, _ = self._request(handle, "GET", "/v1/sessions/sXXXXX/stats")
        assert status == 404
        status, _ = self._request(handle, "GET", "/nope")
        assert status == 404
        status, _ = self._request(
            handle, "POST", "/v1/sessions", {"scheme": "h264"}
        )
        assert status == 400
        status, created = self._request(
            handle, "POST", "/v1/sessions", {"clients": ["x"]}
        )
        assert status == 201
        session = created["session"]
        status, _ = self._request(
            handle, "POST", f"/v1/sessions/{session}/join", {"client": "x"}
        )
        assert status == 409  # duplicate client
        self._request(handle, "POST", f"/v1/sessions/{session}/kill")


class TestServeCommand:
    def test_serve_answers_and_drains_on_sigint(self):
        """``python -m repro serve``: the banner names the port, the
        service answers, and SIGINT drains it with no leaked driver."""
        import os
        import re
        import select
        import signal
        import subprocess
        import urllib.request

        src = Path(__file__).resolve().parents[1] / "src"
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            ready, _, _ = select.select([server.stdout], [], [], 120)
            assert ready, "no banner within 120 s"
            banner = server.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, banner
            url = f"http://{match[1]}:{match[2]}/healthz"
            with urllib.request.urlopen(url, timeout=30) as reply:
                assert reply.status == 200
                assert json.loads(reply.read())["status"] == "ok"
            server.send_signal(signal.SIGINT)
            out, err = server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, err
        assert "stopped (0 leaked drivers)" in out


def _post_session(body: dict) -> tuple[str, bytes, bool]:
    data = json.dumps(body).encode()
    return f"POST /v1/sessions HTTP/1.1\r\nContent-Length: {len(data)}", data, False


# name -> (request head, body, whether the request itself is malformed).
# Every one answers 400 except ``audit-limit-zero``, which answers no events.
HOSTILE = {
    "clients-duplicate": _post_session({"clients": ["a", "a"]}),
    "clients-over-cap": _post_session({"clients": ["a", "b", "c", "d", "e"]}),
    "seed-string": _post_session({"seed": "x"}),
    "seed-float": _post_session({"seed": 1.5}),
    "receivers-string": _post_session({"receivers": "x"}),
    "receivers-over-cap": _post_session({"receivers": 5}),
    "receivers-negative": _post_session({"receivers": -1}),
    "receivers-bool": _post_session({"receivers": True}),
    "audit-limit-word": ("GET /audit?limit=x HTTP/1.1", b"", False),
    "audit-limit-negative": ("GET /audit?limit=-1 HTTP/1.1", b"", False),
    "audit-limit-zero": ("GET /audit?limit=0 HTTP/1.1", b"", False),
    "content-length-word": ("POST /v1/sessions HTTP/1.1\r\nContent-Length: abc", b"", True),
    "content-length-negative": ("POST /v1/sessions HTTP/1.1\r\nContent-Length: -5", b"", True),
}


class TestHostileRequests:
    """Bad input at the HTTP boundary is a 400, never a 500, a dropped
    connection or a session stuck in ``creating``."""

    @pytest.fixture(scope="class")
    def handle(self):
        from repro.service.app import ServiceConfig, ServiceHandle

        config = ServiceConfig(max_clients_per_session=4)
        with ServiceHandle(config) as handle:
            yield handle
        assert handle.app.registry.live_drivers() == 0

    @staticmethod
    def _exchange(handle, head: str, body: bytes = b""):
        """One raw request; (status, payload), or (None, {}) when the
        server closed the connection without answering."""
        request = f"{head}\r\nHost: test\r\nConnection: close\r\n\r\n".encode("latin-1") + body
        with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        if not reply:
            return None, {}
        status_head, _, payload = reply.partition(b"\r\n\r\n")
        return int(status_head.split()[1]), json.loads(payload or b"{}")

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_answers_400_and_the_service_stays_whole(self, handle, name):
        head, body, malformed = HOSTILE[name]
        _, metrics = self._exchange(handle, "GET /metrics HTTP/1.1")
        bad_before = metrics.get("service.http.bad_requests", {}).get("value", 0)

        status, payload = self._exchange(handle, head, body)
        if name == "audit-limit-zero":
            assert (status, payload) == (200, {"events": []})
        else:
            assert status == 400, payload

        status, health = self._exchange(handle, "GET /healthz HTTP/1.1")
        assert status == 200
        assert health["sessions"]["creating"] == 0
        _, metrics = self._exchange(handle, "GET /metrics HTTP/1.1")
        assert "service.http.responses_5xx" not in metrics
        bad_after = metrics.get("service.http.bad_requests", {}).get("value", 0)
        assert bad_after == bad_before + malformed

    def test_extra_path_segments_are_404(self, handle):
        """A session route is ``/v1/sessions/<id>[/<action>]``: a path
        with more segments names no route, so it neither reads nor acts."""
        body = b'{"receivers": 1}'
        status, created = self._exchange(
            handle, f"POST /v1/sessions HTTP/1.1\r\nContent-Length: {len(body)}", body
        )
        assert status == 201
        base = f"/v1/sessions/{created['session']}"
        status, _ = self._exchange(handle, f"GET {base}/stats/bogus HTTP/1.1")
        assert status == 404
        join = b'{"client": "mallory"}'
        status, _ = self._exchange(
            handle, f"POST {base}/join/x HTTP/1.1\r\nContent-Length: {len(join)}", join
        )
        assert status == 404
        status, stats = self._exchange(handle, f"GET {base}/stats HTTP/1.1")
        assert status == 200
        assert "mallory" not in stats["clients"] and stats["pending_ops"] == 0
        self._exchange(handle, f"POST {base}/kill HTTP/1.1")


class TestLoadgen:
    def test_schedule_is_deterministic_per_seed(self):
        from repro.service.loadgen import LoadgenConfig, build_schedule

        config = LoadgenConfig(
            clients=64, receivers_per_session=8, duration_s=5.0, seed=11,
            kill_storms=2,
        )
        first = build_schedule(config)
        second = build_schedule(config)
        assert first == second  # same seed -> same request trace
        shifted = build_schedule(
            LoadgenConfig(
                clients=64, receivers_per_session=8, duration_s=5.0, seed=12,
                kill_storms=2,
            )
        )
        assert first != shifted

    def test_schedule_covers_all_clients_and_storms(self):
        from repro.service.loadgen import LoadgenConfig, build_schedule

        config = LoadgenConfig(
            clients=40, receivers_per_session=8, duration_s=4.0, seed=0,
            kill_storms=2,
        )
        ops = [op for slot in build_schedule(config) for op in slot]
        kinds = {}
        for op in ops:
            kinds[op["op"]] = kinds.get(op["op"], 0) + 1
        assert kinds["create"] == 5
        assert kinds["join"] == 40
        assert kinds["kill"] >= 2
        assert kinds["healthz"] > 0 and kinds["stats"] > 0
        # Joins always land at or after their session's create slot.
        create_slot = {}
        for index, slot in enumerate(build_schedule(config)):
            for op in slot:
                if op["op"] == "create":
                    create_slot[op["session"]] = index
        for index, slot in enumerate(build_schedule(config)):
            for op in slot:
                if op["op"] == "join":
                    assert index > create_slot[op["session"]]

    def test_small_run_survives_churn_without_5xx(self, monkeypatch):
        """The benchmark's own open-loop driver, loaded by path, so one
        driver serves both the benchmark and this check."""
        from repro.service.app import ServiceConfig, ServiceHandle
        from repro.service.loadgen import LoadgenConfig, build_schedule

        path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "loadgen_open.py"
        spec = importlib.util.spec_from_file_location("loadgen_open", path)
        loadgen_open = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, loadgen_open)   # its dataclass looks itself up
        spec.loader.exec_module(loadgen_open)

        config = LoadgenConfig(
            clients=24, receivers_per_session=8, duration_s=2.0, seed=5,
            kill_storms=1,
        )
        handle = ServiceHandle(ServiceConfig()).start()
        try:
            result = asyncio.run(
                loadgen_open.drive(handle.host, handle.port, build_schedule(config), config.slot_s)
            )
        finally:
            handle.stop()
        assert result.errors_5xx == result.unexpected_4xx == result.connection_errors == 0
        assert handle.app.registry.live_drivers() == 0
        assert len(result.requests) > 30
        assert result.sessions_created == 3
        for state in ("creating", "running", "draining"):
            assert result.final_counts[state] == 0


class TestFleetTeardownRegression:
    """A raising tick fails the fleet run loudly and leaks no driver."""

    @staticmethod
    def _exploding(monkeypatch, explodes):
        """Make the room build conferences whose tick raises once
        ``explodes(build_order, driver)`` holds; returns the list they
        land in, in build order."""
        import repro.sfu.room as room_module

        built = []

        class _Exploding(room_module.RoomConference):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

            def tick_steps(self, frame, now, target_rate_bps, horizon_s):
                if explodes(built.index(self), self):
                    raise RuntimeError("injected stage failure")
                return super().tick_steps(frame, now, target_rate_bps, horizon_s)

        monkeypatch.setattr(room_module, "RoomConference", _Exploding)
        return built

    def test_injected_tick_failure_still_closes_everything(self, monkeypatch, fleet_shape):
        from repro.sfu.fleet import FleetConfig, run_fleet

        built = self._exploding(
            monkeypatch, lambda order, driver: order == 1 and driver.frames_ticked >= 2
        )
        fleet_shape(receivers=2, churn_every=3, sample_budget=1500, unicast_control=1)
        config = FleetConfig(sessions=3, frames=6)
        # The service would drain the session and go on; the fleet
        # must not report a capacity number over a dead conference.
        with pytest.raises(RuntimeError, match="injected stage failure"):
            run_fleet(config)
        assert len(built) == 3
        assert all(driver.closed for driver in built)

    def test_batch_plane_failure_also_tears_down(self, monkeypatch, fleet_shape):
        from repro.sfu.fleet import FleetConfig, run_fleet

        built = self._exploding(
            monkeypatch, lambda order, driver: order == 0 and driver.frames_ticked >= 1
        )
        fleet_shape(receivers=2, churn_every=3, sample_budget=1500, unicast_control=1)
        config = FleetConfig(sessions=2, frames=5)
        with pytest.raises(RuntimeError, match="injected stage failure"):
            run_fleet(config)
        assert built and all(driver.closed for driver in built)

    def test_build_failure_fails_the_run(self, monkeypatch, fleet_shape):
        import repro.sfu.room as room_module
        from repro.sfu.fleet import FleetConfig, run_fleet

        built = self._exploding(monkeypatch, lambda order, driver: False)
        original = room_module.Room.__call__

        def flaky(room, seed, receivers):
            if seed == 2:
                raise RuntimeError("injected build failure")
            return original(room, seed, receivers)

        monkeypatch.setattr(room_module.Room, "__call__", flaky)
        fleet_shape(receivers=2, sample_budget=1500, unicast_control=1)
        config = FleetConfig(sessions=4, frames=3)
        with pytest.raises(RuntimeError, match="injected build failure"):
            run_fleet(config)
        assert len(built) == 2 and all(driver.closed for driver in built)

    def test_roster_over_the_client_cap_fails_loudly(self, fleet_shape):
        from repro.sfu.fleet import FleetConfig, run_fleet

        fleet_shape(receivers=65, sample_budget=1500)
        config = FleetConfig(sessions=1, frames=2)
        with pytest.raises(ValueError, match="exceed the cap of 64"):
            run_fleet(config)

    def test_churned_join_past_the_client_cap_fails_loudly(self, fleet_shape):
        # 64 seated receivers, a churn step every frame: the first drawn
        # join is one past the registry's cap and must raise, not be
        # refused quietly.
        from repro.sfu.fleet import FleetConfig, run_fleet

        fleet_shape(receivers=64, churn_every=1, sample_budget=300, unicast_control=1)
        config = FleetConfig(sessions=1, frames=8)
        with pytest.raises(LifecycleError, match="is full"):
            run_fleet(config)
