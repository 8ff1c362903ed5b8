"""Stdlib-asyncio HTTP front-end over :class:`PredictionService`.

A deliberately small hand-rolled HTTP/1.1 server — the repo's
no-new-dependencies rule applies to serving too, and the endpoint
surface is narrow enough that ``asyncio.start_server`` plus a request
parser is simpler and more auditable than embedding a framework:

* ``POST /ingest`` — body = raw log lines; 200 with per-bucket
  accounting, or **429 + Retry-After** when load was shed;
* ``GET /health`` — the full service health document (shards, queues,
  workers); ``status`` reads ``degraded`` while a crashed worker has
  not committed an item since;
* ``GET /nodes/<id>`` — one node's serving state;
* ``GET /predict/<id>`` — deadline-bounded on-demand prediction
  (``?deadline_ms=`` overrides the configured default);
* ``GET /alerts`` — buffered alerts as JSON (``?since=<seq>``), or a
  live ``text/event-stream`` when requested with ``?stream=1`` or an
  ``Accept: text/event-stream`` header;
* ``GET /metrics`` — the Prometheus text exposition of the repo-wide
  metrics registry.

Robustness posture: request bodies are size-capped (413), unknown
routes 404, malformed requests 400, and any unexpected handler failure
is contained to its connection as a 500 — a poisoned request must never
take the service down.  SSE writes carry a per-write timeout so one
stalled subscriber cannot pin a connection handler forever.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from ..errors import ConfigError
from ..obs import metrics_registry
from .service import PredictionService

__all__ = ["HttpServer", "run_server"]

#: Largest accepted request body (bytes); ingest batches beyond this 413.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Largest accepted request head (start line + headers) in bytes.
_MAX_HEAD_BYTES = 32 * 1024
#: Seconds an SSE write may stall before the subscriber is dropped.
_SSE_WRITE_TIMEOUT = 5.0
#: Seconds between SSE keepalive comments when no alerts flow.
_SSE_KEEPALIVE = 15.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """Internal: malformed request; mapped to a 4xx response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HttpServer:
    """Serve a :class:`PredictionService` over HTTP/1.1 (close-per-request)."""

    def __init__(
        self,
        service: PredictionService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # Serializes start/stop: both check-then-act on _server across
        # an await, so concurrent lifecycle calls would otherwise race
        # (double-bind, or stop() closing a half-started listener).
        self._lifecycle = asyncio.Lock()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; ``port`` 0 picks a free port."""
        async with self._lifecycle:
            if self._server is not None:
                raise ConfigError("server already started")
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting connections and close the listener."""
        async with self._lifecycle:
            if self._server is None:
                return
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, headers, body = await self._read_request(
                    reader
                )
                metrics_registry().counter("serve.http.requests").inc()
                await self._dispatch(
                    writer, method, path, query, headers, body
                )
            except _BadRequest as exc:
                # Raised by request parsing *and* by handlers (e.g. a
                # garbage query parameter): always a 4xx, never a 500.
                await self._respond_json(
                    writer, exc.status, {"error": str(exc)}
                )
                return
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # client went away mid-request; nothing to answer
        except Exception as exc:  # deshlint: allow[R4] connection boundary: a handler bug must 500 its own connection, never crash the accept loop
            metrics_registry().counter("serve.http.errors").inc()
            try:
                await self._respond_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except (ConnectionError, RuntimeError):
                return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                return

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, dict, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as exc:
            raise _BadRequest(413, "request head too large") from exc
        except asyncio.IncompleteReadError as exc:
            raise _BadRequest(400, "truncated request") from exc
        if len(head) > _MAX_HEAD_BYTES:
            raise _BadRequest(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _BadRequest(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        path, _, query_text = target.partition("?")
        query: dict[str, str] = {}
        for pair in query_text.split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            query[key] = value
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError as exc:
            raise _BadRequest(
                400, f"bad Content-Length: {length_text!r}"
            ) from exc
        if length < 0:
            raise _BadRequest(400, f"bad Content-Length: {length_text!r}")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, path, query, headers, body

    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict,
        headers: dict,
        body: bytes,
    ) -> None:
        if path == "/ingest":
            if method != "POST":
                await self._respond_json(
                    writer, 405, {"error": "POST required"}
                )
                return
            await self._handle_ingest(writer, body)
            return
        if method != "GET":
            await self._respond_json(writer, 405, {"error": "GET required"})
            return
        if path == "/health":
            await self._respond_json(writer, 200, self.service.health())
        elif path == "/metrics":
            await self._respond_text(
                writer,
                200,
                metrics_registry().to_prometheus(),
                content_type="text/plain; version=0.0.4",
            )
        elif path == "/alerts":
            wants_stream = query.get("stream") == "1" or (
                "text/event-stream" in headers.get("accept", "")
            )
            if wants_stream:
                await self._handle_alert_stream(writer)
            else:
                since = _int_query(query, "since", 0)
                await self._respond_json(
                    writer,
                    200,
                    {"alerts": self.service.alerts_since(since)},
                )
        elif path.startswith("/nodes/"):
            status = self.service.node_status(path[len("/nodes/"):])
            if status is None:
                await self._respond_json(
                    writer, 404, {"error": "unknown or invalid node id"}
                )
            else:
                await self._respond_json(writer, 200, status)
        elif path.startswith("/predict/"):
            deadline_ms = _int_query(query, "deadline_ms", 0)
            answer = await self.service.predict(
                path[len("/predict/"):],
                deadline_seconds=(
                    deadline_ms / 1000.0 if deadline_ms > 0 else None
                ),
            )
            await self._respond_json(writer, 200, answer)
        else:
            await self._respond_json(
                writer, 404, {"error": f"no route for {path}"}
            )

    async def _handle_ingest(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        lines = [
            line
            for line in body.decode("utf-8", "replace").splitlines()
            if line.strip()
        ]
        result = await self.service.ingest_lines(lines)
        if result.shed:
            extra = {}
            if result.retry_after is not None:
                extra["Retry-After"] = f"{result.retry_after:g}"
            await self._respond_json(
                writer, 429, result.as_dict(), extra_headers=extra
            )
        else:
            await self._respond_json(writer, 200, result.as_dict())

    async def _handle_alert_stream(self, writer: asyncio.StreamWriter) -> None:
        """Server-sent events: replayed ring, then live until shutdown.

        The subscriber queue only wakes the stream; what it sends is
        read from the alert ring by sequence number.  A reader slower
        than the queue is deep therefore still gets every alert the
        ring holds, in order and once; alerts the ring overwrote before
        they were sent are counted in ``serve.sse.overwritten``.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        queue = self.service.subscribe()
        try:
            sent = await self._sse_write(
                writer, self.service.alerts_since(0), 0
            )
            while True:
                try:
                    item = await asyncio.wait_for(
                        queue.get(), _SSE_KEEPALIVE
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\r\n\r\n")
                    await asyncio.wait_for(
                        writer.drain(), _SSE_WRITE_TIMEOUT
                    )
                    continue
                while item is not None and not queue.empty():
                    item = queue.get_nowait()
                alerts = self.service.alerts_since(sent)
                if alerts and alerts[0]["seq"] > sent + 1:
                    metrics_registry().counter("serve.sse.overwritten").inc(
                        alerts[0]["seq"] - sent - 1
                    )
                sent = await self._sse_write(writer, alerts, sent)
                if item is None:  # shutdown sentinel
                    return
        except (ConnectionError, asyncio.TimeoutError):
            metrics_registry().counter("serve.sse.dropped").inc()
            return
        finally:
            self.service.unsubscribe(queue)

    async def _sse_write(
        self, writer: asyncio.StreamWriter, alerts: "list[dict]", sent: int
    ) -> int:
        """Send *alerts* in one write; returns the last sequence sent."""
        if not alerts:
            return sent
        writer.write(
            "".join(
                f"id: {alert['seq']}\nevent: alert\n"
                f"data: {json.dumps(alert, sort_keys=True)}\n\n"
                for alert in alerts
            ).encode()
        )
        await asyncio.wait_for(writer.drain(), _SSE_WRITE_TIMEOUT)
        return alerts[-1]["seq"]

    # ------------------------------------------------------------------
    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        extra_headers: Optional[dict] = None,
    ) -> None:
        await self._respond_text(
            writer,
            status,
            json.dumps(payload, sort_keys=True),
            content_type="application/json",
            extra_headers=extra_headers,
        )

    async def _respond_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        *,
        content_type: str,
        extra_headers: Optional[dict] = None,
    ) -> None:
        body = text.encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for key, value in (extra_headers or {}).items():
            head.append(f"{key}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


def _int_query(query: dict, key: str, default: int) -> int:
    """Parse an integer query parameter, 400-ing on garbage."""
    raw = query.get(key)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise _BadRequest(400, f"bad {key!r} value: {raw!r}") from exc


async def run_server(
    service: PredictionService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_seconds: Optional[float] = None,
    restore: bool = True,
) -> dict:
    """Start the service + HTTP front-end and serve until interrupted.

    ``max_seconds`` bounds the run (for CI smoke jobs); ``None`` serves
    until cancellation (Ctrl-C in the CLI).  Returns a final health
    snapshot after graceful shutdown (drain + checkpoint).
    """
    restored = await service.start(restore=restore)
    server = HttpServer(service, host=host, port=port)
    await server.start()
    print(f"serving on http://{server.host}:{server.port}/ "
          f"(restored={restored})")
    try:
        if max_seconds is not None:
            await asyncio.sleep(max_seconds)
        else:
            while True:
                await asyncio.sleep(3600)
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
        path = await service.stop(checkpoint=True)
        if path is not None:
            print(f"checkpoint written: {path}")
    return service.health()
