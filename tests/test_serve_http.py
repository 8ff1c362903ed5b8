"""Tests for the asyncio HTTP front-end over the prediction service."""

import asyncio
import json

import pytest

from repro.serve import HttpServer, PredictionService, ServeConfig
from repro.simlog.record import render_line


@pytest.fixture
def lines(test_split):
    return [render_line(r) for r in test_split.records]


async def _request(port, raw: bytes) -> tuple[int, dict, bytes]:
    """One raw HTTP/1.1 request; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    headers = {}
    for line in head_lines[1:]:
        if ":" in line:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        body = await reader.readexactly(int(headers["content-length"]))
    writer.close()
    return status, headers, body


def _get(path: str) -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"
    ).encode()


def _post(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    return head + body


class _Harness:
    """A started service + HTTP server with helpers, torn down cleanly."""

    def __init__(self, model, config=None, **service_kwargs):
        self.service = PredictionService(
            model,
            config
            or ServeConfig(num_shards=2, drain_timeout=2.0),
            **service_kwargs,
        )
        self.server = HttpServer(self.service, port=0)

    async def __aenter__(self):
        await self.service.start(restore=False)
        await self.server.start()
        return self

    async def __aexit__(self, *exc):
        await self.server.stop()
        await self.service.stop(checkpoint=False)

    async def request(self, raw: bytes):
        return await _request(self.server.port, raw)


class TestEndpoints:
    def test_ingest_then_health_alerts_predict_metrics(
        self, trained_model, lines
    ):
        async def run():
            async with _Harness(trained_model) as h:
                body = "\n".join(lines[:800]).encode()
                status, _, out = await h.request(_post("/ingest", body))
                ingest = json.loads(out)
                assert status == 200
                assert ingest["accepted"] == 800

                for _ in range(200):
                    if not any(s.queue.depth for s in h.service._shards):
                        break
                    await asyncio.sleep(0.01)

                status, _, out = await h.request(_get("/health"))
                health = json.loads(out)
                assert status == 200
                assert health["num_shards"] == 2
                assert (
                    sum(s["lines_processed"] for s in health["shards"]) == 800
                )

                status, _, out = await h.request(_get("/alerts?since=0"))
                alerts = json.loads(out)["alerts"]
                assert status == 200 and alerts

                node = alerts[0]["node"]
                status, _, out = await h.request(
                    _get(f"/predict/{node}?deadline_ms=2000")
                )
                assert status == 200
                answer = json.loads(out)
                assert answer["node"] == node

                status, headers, out = await h.request(_get("/metrics"))
                assert status == 200
                assert "text/plain" in headers["content-type"]
                assert b"serve" in out

        asyncio.run(run())

    def test_ingest_returns_429_with_retry_after_when_shedding(
        self, trained_model, lines
    ):
        async def run():
            config = ServeConfig(
                num_shards=1,
                queue_depth=1,
                backpressure_wait=0.01,
                drain_timeout=0.1,
            )
            async with _Harness(
                trained_model, config, fault_hook=lambda s, i: 3600.0
            ) as h:
                statuses = []
                retry_after = None
                for i in range(0, 40, 10):
                    body = "\n".join(lines[i : i + 10]).encode()
                    status, headers, _ = await h.request(
                        _post("/ingest", body)
                    )
                    statuses.append(status)
                    if status == 429:
                        retry_after = headers.get("retry-after")
                return statuses, retry_after

        statuses, retry_after = asyncio.run(run())
        assert 429 in statuses
        assert retry_after is not None and float(retry_after) > 0

    def test_unknown_route_404_and_wrong_method_405(self, trained_model):
        async def run():
            async with _Harness(trained_model) as h:
                s404, _, _ = await h.request(_get("/bogus"))
                s405, _, _ = await h.request(_post("/health", b""))
                s405b, _, _ = await h.request(_get("/ingest"))
                return s404, s405, s405b

        assert asyncio.run(run()) == (404, 405, 405)

    def test_malformed_request_line_400(self, trained_model):
        async def run():
            async with _Harness(trained_model) as h:
                status, _, _ = await h.request(b"NONSENSE\r\n\r\n")
                return status

        assert asyncio.run(run()) == 400

    def test_oversized_body_413(self, trained_model):
        from repro.serve.server import MAX_BODY_BYTES

        async def run():
            async with _Harness(trained_model) as h:
                head = (
                    "POST /ingest HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
                ).encode()
                status, _, _ = await h.request(head)
                return status

        assert asyncio.run(run()) == 413

    def test_unknown_node_404(self, trained_model):
        async def run():
            async with _Harness(trained_model) as h:
                status, _, _ = await h.request(_get("/nodes/garbage!!"))
                return status

        assert asyncio.run(run()) == 404

    def test_bad_query_parameter_400(self, trained_model):
        async def run():
            async with _Harness(trained_model) as h:
                status, _, _ = await h.request(_get("/alerts?since=xyz"))
                return status

        assert asyncio.run(run()) == 400


class TestAlertStreaming:
    def test_sse_stream_replays_and_follows_live_alerts(
        self, trained_model, lines
    ):
        async def run():
            async with _Harness(trained_model) as h:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", h.server.port
                )
                writer.write(
                    b"GET /alerts?stream=1 HTTP/1.1\r\nHost: t\r\n"
                    b"Accept: text/event-stream\r\n\r\n"
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"text/event-stream" in head
                await h.service.ingest_lines(lines[:800])
                event = await asyncio.wait_for(
                    reader.readuntil(b"\n\n"), 10.0
                )
                text = event.decode()
                assert "event: alert" in text
                data = json.loads(
                    next(
                        line[6:]
                        for line in text.splitlines()
                        if line.startswith("data: ")
                    )
                )
                assert data["node"]
                writer.close()

        asyncio.run(run())

    def test_sse_stream_slower_than_its_queue_loses_no_alert(
        self, trained_model, lines
    ):
        # A one-deep subscriber queue overflows as soon as one ingest
        # batch raises two alerts before the stream handler runs; the
        # stream must still deliver every published alert, in order.
        config = ServeConfig(
            num_shards=1, drain_timeout=2.0, subscriber_buffer=1
        )

        async def run():
            async with _Harness(trained_model, config) as h:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", h.server.port
                )
                writer.write(
                    b"GET /alerts?stream=1 HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")
                await h.service.ingest_lines(lines[:1500])
                await h.service._shards[0].queue.join(5.0)
                published = h.service.health()["alert_seq"]
                seqs = []
                while len(seqs) < published:
                    event = await asyncio.wait_for(
                        reader.readuntil(b"\n\n"), 5.0
                    )
                    seqs.append(int(event.split(b"\n", 1)[0][4:]))
                writer.close()
                return published, seqs

        published, seqs = asyncio.run(run())
        assert published >= 2
        assert seqs == list(range(1, published + 1))
