"""Thin asyncio HTTP/1.1 layer: JSON in, JSON out, stdlib only.

Deliberately small: the service needs request-line + header parsing,
``Content-Length`` bodies, keep-alive, and JSON responses -- not a web
framework.  Two halves:

- :class:`HttpServer` -- ``asyncio.start_server`` wrapper dispatching
  each request to a synchronous handler ``handler(request) ->
  (status, payload)`` on a small thread pool (handlers take registry
  locks and may build sessions; the event loop must stay responsive
  while they do).
- :class:`JsonClient` -- a keep-alive connection pool the load
  generator drives thousands of simulated clients through without
  opening a socket per request.

Malformed requests get 400s, handler bugs get 500s with a counter
bump; neither kills the connection loop.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

__all__ = ["HttpError", "HttpRequest", "HttpServer", "JsonClient"]

# Request bodies are tiny JSON control messages; anything bigger is
# abuse, not traffic.
_MAX_BODY_BYTES = 1 << 20
_MAX_HEADER_LINES = 64

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    410: "Gone", 413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Raise inside a handler to return a specific status + message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """Parse the body as a JSON object ({} when empty)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as error:
            raise HttpError(400, f"invalid JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        return payload


def _encode_response(status: int, payload: dict, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    return head.encode("ascii") + body


async def _read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; None on clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, target, _ = parts
    split = urlsplit(target)
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too many headers")
    declared = headers.get("content-length", "0") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise HttpError(400, "Content-Length must be a non-negative integer")
    length = int(declared)
    if length > _MAX_BODY_BYTES:
        raise HttpError(413, "body too large")
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(
        method=method.upper(),
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


class HttpServer:
    """Serve ``handler(request) -> (status, dict)`` over HTTP/1.1.

    The handler is synchronous and runs on ``handler_threads`` pool
    threads; it must be thread-safe (the registry is).  ``metrics`` --
    when given -- receives ``service.http.*`` counters.
    """

    def __init__(self, handler, host: str = "127.0.0.1", port: int = 0,
                 metrics=None, handler_threads: int = 4) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.metrics = metrics
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._pool = ThreadPoolExecutor(
            max_workers=handler_threads, thread_name_prefix="service-http"
        )

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections sit in readline(); cancel them so
        # the loop can close without destroying pending tasks.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._pool.shutdown(wait=False)

    async def _serve_connection(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except HttpError as error:
                    writer.write(
                        _encode_response(
                            error.status, {"error": error.message}, False
                        )
                    )
                    await writer.drain()
                    self._count("service.http.bad_requests")
                    break
                if request is None:
                    break
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    status, payload = await loop.run_in_executor(
                        self._pool, self.handler, request
                    )
                except HttpError as error:
                    status, payload = error.status, {"error": error.message}
                except Exception as error:  # noqa: BLE001 -- 500, never a dead loop
                    status, payload = 500, {"error": repr(error)}
                    self._count("service.http.errors_5xx")
                self._count("service.http.requests")
                if status >= 500:
                    self._count("service.http.responses_5xx")
                writer.write(_encode_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; its problem
        except asyncio.CancelledError:
            pass  # server shutting down
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass
            # Deregister last: until here the task still has an await
            # pending, and ``aclose`` must gather it before the loop
            # closes or the task dies un-reaped.
            if task is not None:
                self._connections.discard(task)


class JsonClient:
    """Keep-alive JSON client with a bounded connection pool.

    ``pool`` connections are opened lazily and multiplex any number of
    logical clients; each request checks a connection out, so fd usage
    stays bounded no matter how many simulated clients the load
    generator runs.
    """

    def __init__(self, host: str, port: int, pool: int = 16) -> None:
        self.host = host
        self.port = port
        self._free: asyncio.Queue = asyncio.Queue()
        self._available = asyncio.Semaphore(pool)
        self._all: list[tuple] = []

    async def _checkout(self):
        await self._available.acquire()
        try:
            return self._free.get_nowait()
        except asyncio.QueueEmpty:
            pair = await asyncio.open_connection(self.host, self.port)
            self._all.append(pair)
            return pair

    def _checkin(self, pair) -> None:
        self._free.put_nowait(pair)
        self._available.release()

    def _discard(self, pair) -> None:
        reader, writer = pair
        try:
            self._all.remove(pair)
        except ValueError:
            pass
        writer.close()
        self._available.release()

    async def request(self, method: str, path: str, payload: dict | None = None):
        """One round trip; returns (status, parsed_json)."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("ascii")
        pair = await self._checkout()
        reader, writer = pair
        try:
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            if not status_line:
                raise ConnectionResetError("server closed the connection")
            status = int(status_line.split()[1])
            length = 0
            keep = True
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value.strip())
                elif name == "connection" and value.strip().lower() == "close":
                    keep = False
            data = await reader.readexactly(length) if length else b""
        except Exception:
            self._discard(pair)
            raise
        if keep:
            self._checkin(pair)
        else:
            self._discard(pair)
        return status, (json.loads(data) if data else {})

    async def aclose(self) -> None:
        for _, writer in self._all:
            writer.close()
        self._all.clear()
