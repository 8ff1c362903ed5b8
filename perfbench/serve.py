"""Workloads ``serve-flood`` and ``serve-storm``: ``repro serve`` over HTTP.

Set-up (timed, repeated, median reported): generate the pinned M1 log,
train and save the serving model, generate the stream, start the server
process and wait until ``/health`` answers.  Each set-up fits the model
cold, without the artifact cache (a cache-restored model saves a
different vocabulary, see README), and ``train_s`` is the mean of
those fits.  The serving model's quality guard (recall, precision on
the pinned M1 test split) runs once per run, untimed.

The generator is one asyncio process with at most two connections open:
the ``/alerts?stream=1`` SSE stream and one request at a time.

* ``serve-flood`` is a closed loop: the next ``POST /ingest`` leaves
  when the previous one is answered; a batch that comes back shed (429)
  is re-sent before anything else, so per-shard order — and therefore
  the alert stream — is exactly that of the stream.  Throughput is the
  lines the service *completed* over the wall time until it drained.
* ``serve-storm`` is an open loop: every line has a due time (the log's
  own gaps, scaled to a fixed mean rate); like a log shipper, the
  generator flushes the lines that fell due in each 10 ms tick as one
  ``POST`` at the tick's end, its *due send time*.  Scheduled
  ``GET /predict`` calls fall on ticks too.  Latency counts from the due
  send time, so a stalled generator or server shows up as latency, and
  the generator's own lateness is reported.

Every pass is checked against an unpaced in-process
``PredictionService`` replay of the same lines in the same order.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import harness, offline, serve_layers
from .spans import SpanRecorder, unattributed

#: Set-ups per run (setup_s is their median).
SETUPS = 3
#: Phase-2 epochs of the serving model (serving cost does not depend on
#: the weights; the architecture is the Table-5 default).
SERVE_PHASE2_EPOCHS = 8
#: The M1 log the serving model is trained on.  Pinned like offline-m1's:
#: a model trained on another seed's log can flag ten times fewer
#: episodes (282 vs 2526 storm alerts on seeds 10 and 6), which would
#: change what the workload loads, not how fast the code is.
PINNED_SEED = 2018
#: Lines per POST in the closed loop.
FLOOD_BATCH = 256
#: Closed-loop stream length: M1 test-split laps, about this many lines
#: per requested second.
FLOOD_LINES_PER_SECOND = 9000
#: Open-loop mean rate (lines/s), the flush tick (s) and the largest
#: POST it builds.
STORM_RATE = 1500.0
STORM_TICK_S = 0.01
STORM_MAX_BATCH = 256
#: One GET /predict every this many ticks.
PREDICT_EVERY_TICKS = 20
#: The anomaly-dense storm stream on the M1 topology.
STORM_GENERATOR = dict(
    horizon=10 * 3600.0,
    failure_count=1200,
    near_miss_ratio=1.0,
    maintenance_count=0,
    background_rate=1 / 20000.0,
)
#: Alerts a storm run must yield so that p99 has ten samples beyond it.
MIN_ALERTS = 1000
HOST = "127.0.0.1"


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _lap(records, laps: int, horizon: float) -> list[str]:
    """Render *records* *laps* times, each lap shifted a horizon later so
    every line is new to the dedup window and to the monitors."""
    from repro.simlog.record import render_line

    return [
        render_line(r.shifted(lap * horizon) if lap else r)
        for lap in range(laps)
        for r in records
    ]


def make_stream(workload: str, seed: int, seconds: float) -> dict:
    """The stream's rendered ``lines`` (from *seed*) and, for the open
    loop, each line's send ``ticks``."""
    from repro.rng import derive_seed
    from repro.simlog import generate_system

    if workload == "serve-flood":
        log = generate_system("M1", seed=seed)
        test = log.split(0.3)[1]
        laps = max(1, round(seconds * FLOOD_LINES_PER_SECOND / len(test.records)))
        lines = _lap(test.records, laps, log.config.horizon)
        return {"lines": lines, "ticks": None}

    import numpy as np

    from repro.simlog.faults import default_fault_model
    from repro.simlog.generator import GeneratorConfig, LogGenerator
    from repro.simlog.systems import SYSTEM_PRESETS
    from repro.simlog.templates import default_catalog
    from repro.simlog.workload import WorkloadModel

    preset = SYSTEM_PRESETS["M1"]
    generator = LogGenerator(
        preset.topology,
        catalog=default_catalog(),
        fault_model=default_fault_model().with_mix(preset.class_mix),
        workload=WorkloadModel(),
    )
    config = GeneratorConfig(**STORM_GENERATOR)
    storm = generator.generate(
        config, np.random.default_rng(derive_seed(seed, "perfbench.storm"))
    )
    wanted = int(STORM_RATE * seconds)
    laps = -(-wanted // len(storm.records))
    records = [
        r.shifted(lap * config.horizon) if lap else r
        for lap in range(laps)
        for r in storm.records
    ][:wanted]
    from repro.simlog.record import render_line

    lines = [render_line(r) for r in records]
    due = harness.scaled_schedule([r.timestamp for r in records], STORM_RATE)
    ticks = [math.ceil(d / STORM_TICK_S - 1e-9) for d in due]
    return {"lines": lines, "ticks": ticks}


def train_and_save(train_records, run_dir: Path):
    """Fit the serving model cold and save it; returns (model, model
    dir, fit window)."""
    from repro.cli import save_model
    from repro.config import DeshConfig
    from repro.core import Desh

    config = DeshConfig()
    config = replace(
        config, phase2=replace(config.phase2, epochs=SERVE_PHASE2_EPOCHS)
    )
    start = time.perf_counter()
    model = Desh(config).fit(train_records, train_classifier=False)
    fit_window = (start, time.perf_counter())
    model_dir = run_dir / "model"
    save_model(model, model_dir)
    return model, model_dir, fit_window


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
class Server:
    """One launcher process running ``repro serve`` on a free port."""

    def __init__(self, model_dir: Path, report: Path, trace: bool) -> None:
        self.report = report
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py")),
             "--model-dir", str(model_dir), "--report", str(report),
             "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, env=harness.child_env(), cwd=harness.ROOT,
        )
        self.port = None
        try:
            self.port = self._await_port()
            asyncio.run(self._await_health())
        except BaseException:
            self.kill()
            raise

    def _await_port(self) -> int:
        """The port from run_server's ``serving on http://host:port/``."""
        for raw in self.proc.stdout:
            line = raw.decode()
            if line.startswith("serving on http://"):
                return int(line.split("://", 1)[1].split("/", 1)[0].rsplit(":", 1)[1])
        raise RuntimeError("server exited before it listened")

    async def _await_health(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _ = await request(self.port, "GET", "/health")
                if status == 200:
                    return
            except OSError:
                pass
            await asyncio.sleep(0.01)
        raise RuntimeError("server /health never answered")

    def peak_rss_mb(self) -> float:
        """Peak RSS so far, from the kernel's high-water mark."""
        return harness.peak_rss_mb(str(self.proc.pid))

    def stop(self) -> dict:
        """SIGINT (graceful drain and shutdown), wait, read the report."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not shut down")
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(self.report.read_text())

    def kill(self) -> None:
        """Make sure the process is gone (after a failure)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
async def request(port: int, method: str, path: str, body: bytes = b""):
    """One close-delimited HTTP/1.1 request; returns (status, body)."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            .encode("latin-1") + body
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, payload = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, payload


class AlertStream:
    """The generator's SSE subscription; stamps each alert on receipt."""

    def __init__(self) -> None:
        self.alerts: list[tuple[dict, float]] = []
        self._writer = None
        self._task = None

    async def open(self, port: int) -> None:
        reader, self._writer = await asyncio.open_connection(HOST, port)
        self._writer.write(
            f"GET /alerts?stream=1 HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()
        )
        await self._writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        if b" 200 " not in head.split(b"\r\n", 1)[0]:
            raise RuntimeError(f"SSE subscribe failed: {head[:80]!r}")
        self._task = asyncio.create_task(self._read(reader))

    async def _read(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            if line.startswith(b"data: "):
                self.alerts.append((json.loads(line[6:]), time.perf_counter()))

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass


class Client:
    """What the generator saw: statuses, accounting, latencies."""

    def __init__(self) -> None:
        self.requests = 0
        self.bad_status = 0
        self.accepted = 0
        self.deduped = 0
        self.shed = 0
        self.ingest_latencies: list[float] = []
        self.line_sent: list[float] = []
        self.predict_latencies: list[float] = []
        self.predict_degraded = 0
        self.predict_closed = 0
        self.processed = 0
        self.published = 0

    async def ingest(self, port: int, lines: list[str]) -> None:
        """POST *lines*; re-send the whole batch while any of it is shed
        (admitted lines come back deduped, so the retry is idempotent)."""
        body = ("\n".join(lines) + "\n").encode()
        first = True
        while True:
            start = time.perf_counter()
            status, payload = await request(port, "POST", "/ingest", body)
            self.ingest_latencies.append(time.perf_counter() - start)
            self.requests += 1
            if status not in (200, 429):
                self.bad_status += 1
                return
            doc = json.loads(payload)
            self.accepted += doc["accepted"]
            if first:
                self.deduped += doc["deduped"]
            first = False
            if not doc["shed"]:
                return
            self.shed += doc["shed"]

    async def predict(self, port: int, node: str, due: float) -> None:
        status, payload = await request(port, "GET", f"/predict/{node}")
        self.predict_latencies.append(time.perf_counter() - due)
        self.requests += 1
        if status != 200:
            self.bad_status += 1
            return
        doc = json.loads(payload)
        if doc.get("degraded"):
            self.predict_degraded += 1
        elif doc.get("open_events", 0) < 1:
            self.predict_closed += 1


async def _drain(port: int, client: Client, stream: AlertStream) -> float:
    """Wait until every accepted line is processed and every published
    alert has arrived; returns when processing finished."""
    done_at = None
    processed = queued = published = 0
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        status, payload = await request(port, "GET", "/health")
        if status != 200:
            client.bad_status += 1
            break
        health = json.loads(payload)
        processed = sum(s["lines_processed"] for s in health["shards"])
        queued = sum(s["queue"]["depth"] for s in health["shards"])
        published = health["alert_seq"]
        if done_at is None and processed >= client.accepted and queued == 0:
            done_at = time.perf_counter()
        if done_at is not None and len(stream.alerts) >= published:
            client.processed = processed
            client.published = published
            return done_at
        await asyncio.sleep(0.005)
    raise RuntimeError(
        f"service did not drain: accepted {client.accepted}, processed "
        f"{processed}, queued {queued}, alerts {len(stream.alerts)} of "
        f"{published}"
    )


async def drive_flood(port: int, lines: list[str]) -> dict:
    stream = AlertStream()
    await stream.open(port)
    client = Client()
    start = time.perf_counter()
    for i in range(0, len(lines), FLOOD_BATCH):
        await client.ingest(port, lines[i : i + FLOOD_BATCH])
    done = await _drain(port, client, stream)
    await stream.close()
    return {"client": client, "stream": stream, "window": (start, done)}


async def drive_storm(port: int, lines, ticks, predicts) -> dict:
    """Open loop: at each line's tick (and each scheduled predict's) send
    what is due, one request in flight; a late request goes as soon as
    the previous one returns, carrying everything due by then."""
    stream = AlertStream()
    await stream.open(port)
    client = Client()
    t0 = time.perf_counter() + 0.05
    send_at = [t0 + k * STORM_TICK_S for k in ticks]
    p_at = [t0 + k * STORM_TICK_S for k, _ in predicts]
    sent = [0.0] * len(lines)
    i = j = 0
    n, m = len(lines), len(predicts)
    while i < n or j < m:
        # Lines on a tick go before a predict on the same tick.
        if j < m and (i >= n or predicts[j][0] < ticks[i]):
            wait = p_at[j] - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            await client.predict(port, predicts[j][1], p_at[j])
            j += 1
            continue
        wait = send_at[i] - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        now = time.perf_counter()
        k = i + 1
        while (k < n and k - i < STORM_MAX_BATCH and send_at[k] <= now
               and (j >= m or ticks[k] <= predicts[j][0])):
            k += 1
        for index in range(i, k):
            sent[index] = now
        await client.ingest(port, lines[i:k])
        i = k
    done = await _drain(port, client, stream)
    await stream.close()
    client.line_sent = sent
    return {"client": client, "stream": stream, "window": (t0, done),
            "send_at": send_at}


# ----------------------------------------------------------------------
# reference replay and stream facts
# ----------------------------------------------------------------------
def _serve_config():
    """The ServeConfig ``repro serve`` builds from its own defaults."""
    from repro.cli import build_parser
    from repro.serve import ServeConfig

    args = build_parser().parse_args(["serve", "--model-dir", "."])
    return ServeConfig(
        num_shards=args.shards,
        queue_depth=args.queue_depth,
        deadline_seconds=args.deadline_ms / 1000.0,
    )


def reference_replay(model, lines: list[str], batch_size: int = FLOOD_BATCH) -> dict:
    """Unpaced in-process replay of *lines* in batches of *batch_size*.

    Returns the ``alerts``, the ``triggers`` (line index per alert key),
    the ``accepted``, ``deduped`` and ``shed`` line counts, the duration
    of every ``ingest_lines`` call (``ingest_latencies``) and the replay's
    ``window``."""
    from repro.core.monitor import StreamingMonitor
    from repro.serve import PredictionService

    first_index: dict[str, int] = {}
    for index, line in enumerate(lines):
        first_index.setdefault(line, index)
    triggers: dict = {}

    def note(args, kwargs, outcomes, _t):
        for line, outcome in zip(args[1], outcomes):
            if outcome.warning is not None:
                w = outcome.warning
                triggers[harness.alert_key(str(w.node), w.decision_time)] = (
                    first_index[line]
                )

    hooks = SpanRecorder()
    hooks.observe(StreamingMonitor, "feed_line_batch", note)
    out = {"accepted": 0, "deduped": 0, "shed": 0, "ingest_latencies": []}

    async def replay() -> list[dict]:
        service = PredictionService(model, _serve_config())
        await service.start(restore=False)
        queue = service.subscribe()
        alerts: list[dict] = []

        async def consume():
            while (alert := await queue.get()) is not None:
                alerts.append(alert)

        consumer = asyncio.create_task(consume())
        for i in range(0, len(lines), batch_size):
            batch = lines[i : i + batch_size]
            first = True
            while True:
                start = time.perf_counter()
                outcome = await service.ingest_lines(batch)
                out["ingest_latencies"].append(time.perf_counter() - start)
                out["accepted"] += outcome.accepted
                if first:
                    out["deduped"] += outcome.deduped
                first = False
                if not outcome.shed:
                    break
                out["shed"] += outcome.shed
                await asyncio.sleep(0.001)
        await service.stop(checkpoint=False)
        await consumer
        return alerts

    start = time.perf_counter()
    try:
        out["alerts"] = asyncio.run(replay())
    finally:
        hooks.unwrap_all()
    out["window"] = (start, time.perf_counter())
    out["triggers"] = triggers
    return out


def stream_facts(model, lines: list[str], ticks, gap: float) -> dict:
    """Scored-line share, mean open-episode length at each scored line,
    and (storm) the predict schedule: every ``PREDICT_EVERY_TICKS``, the
    node whose still-open episode was touched last by a line sent on or
    before that tick."""
    from repro.parsing.labeling import Label
    from repro.simlog.record import parse_line

    open_len: dict[str, int] = {}
    last_ts: dict[str, float] = {}
    scored, lengths, predicts = 0, [], []
    latest = None
    at = PREDICT_EVERY_TICKS
    for index, line in enumerate(lines):
        while ticks is not None and at < ticks[index]:
            if latest in open_len:
                predicts.append((at, latest))
            at += PREDICT_EVERY_TICKS
        event = model.parser.encode(parse_line(line))
        if event is None or event.node is None or event.label == Label.SAFE:
            continue
        node = str(event.node)
        scored += 1
        if node in last_ts and event.timestamp - last_ts[node] > gap:
            open_len[node] = 0
        open_len[node] = open_len.get(node, 0) + 1
        last_ts[node] = event.timestamp
        lengths.append(open_len[node])
        if event.terminal:  # the monitor closes these eagerly
            open_len.pop(node, None)
            last_ts.pop(node, None)
        else:
            latest = node
    return {
        "lines": len(lines),
        "scored_share": scored / len(lines),
        "mean_open_episode": sum(lengths) / max(1, len(lengths)),
        "predicts": predicts,
    }


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _pass(workload: str, server: Server, inputs: dict, facts: dict) -> dict:
    # The generator's own garbage-collector pauses would delay sends and
    # SSE reads; the server (the program under test) keeps its defaults.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        if workload == "serve-flood":
            out = asyncio.run(drive_flood(server.port, inputs["lines"]))
        else:
            out = asyncio.run(drive_storm(
                server.port, inputs["lines"], inputs["ticks"], facts["predicts"]
            ))
    finally:
        gc.enable()
        gc.unfreeze()
    running_peak = server.peak_rss_mb()
    out["report"] = server.stop()
    out["peak_rss_mb"] = max(running_peak, out["report"]["peak_rss_mb"])
    return out


def _check(result: harness.Result, out: dict, lines, reference) -> None:
    client, stream = out["client"], out["stream"]
    result.attempted += client.requests + len(lines)
    result.check("no 5xx or unexpected status", client.bad_status == 0,
                 client.bad_status)
    lost = len(lines) - client.accepted - client.deduped
    result.check("every line accepted or deduped", lost == 0, abs(lost))
    result.check("every accepted line processed",
                 client.processed == client.accepted,
                 abs(client.accepted - client.processed))
    result.check("no degraded /predict answer", client.predict_degraded == 0,
                 client.predict_degraded)
    result.check("every /predict found its open episode",
                 client.predict_closed == 0, client.predict_closed)
    got = harness.canonical_alerts(a for a, _ in stream.alerts)
    want = harness.canonical_alerts(reference)
    result.check("SSE alerts equal the in-process replay", got == want,
                 max(1, len(set(got) ^ set(want))))
    result.check("every published alert received",
                 len(stream.alerts) == client.published)


def _primary(workload: str, out: dict, triggers) -> dict:
    """End-to-end figures of one pass; ``latency_ms`` is the gated one:
    on serve-flood the wall time per 1000 completed lines at saturation
    (the inverse of its throughput, drain included), on serve-storm the
    median alert."""
    client = out["client"]
    if workload == "serve-flood":
        lo, hi = out["window"]
        rate = client.processed / (hi - lo)
        return {"serve_lines_per_s": rate, "latency_ms": 1e6 / rate}
    keyed = [
        (harness.alert_key(a["node"], a["decision_time"]), t)
        for a, t in out["stream"].alerts
    ]
    latencies, unmatched = harness.match_alerts(keyed, triggers, out["send_at"])
    ms = [x * 1e3 for x in latencies]  # in order of receipt
    alert_p50 = harness.percentile(ms, 0.5)
    return {
        "latency_ms": alert_p50,
        "alert_p50_ms": alert_p50,
        "alert_p99_ms": harness.percentile(ms, 0.99),
        "predict_p50_ms": harness.ms(harness.percentile(client.predict_latencies, 0.5)),
        "unmatched": len(unmatched),
        "alerts": len(ms),
    }


def _setup(workload, seed, seconds, run_dir, index, trace):
    """One timed set-up: the pinned log, a cold fit (traced on the first
    set-up of a traced run), save, the stream, server start.  Returns its
    duration, the fit and its spans, the inputs, the model and the
    running server."""
    recorder = SpanRecorder()
    start = time.perf_counter()
    train, pinned_test, pinned_truth = offline.pinned_inputs()
    if trace and index == 0:
        offline.install_training(recorder)
    try:
        model, model_dir, fit_window = train_and_save(train, run_dir)
    finally:
        recorder.unwrap_all()
    inputs = dict(make_stream(workload, seed, seconds),
                  pinned_test=pinned_test, pinned_truth=pinned_truth)
    server = Server(model_dir, run_dir / f"server{index}.json", False)
    return {
        "setup_s": time.perf_counter() - start,
        "fit_window": fit_window,
        "fit_spans": recorder.closed(),
        "inputs": inputs,
        "model": model,
        "model_dir": model_dir,
        "server": server,
    }


def _guard(result, model, inputs, trace: bool) -> dict:
    """The serving model's quality guard (traced in a traced run)."""
    recorder = SpanRecorder()
    if trace:
        offline.install_evaluate(recorder)
    start = time.perf_counter()
    try:
        metrics = offline.quality_guard(
            result, model, inputs["pinned_test"], inputs["pinned_truth"]
        )
    finally:
        recorder.unwrap_all()
    return {"metrics": metrics, "spans": recorder.closed(),
            "window": (start, time.perf_counter())}


def run(workload: str, seed: int, seconds: float, trace: bool) -> harness.Result:
    result = harness.Result()
    run_dir = harness.OUT / f"{workload}.seed{seed}.{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    servers: list[Server] = []
    try:
        setups = []
        for index in range(SETUPS):
            setup = _setup(workload, seed, seconds, run_dir, index, trace)
            servers.append(setup["server"])
            setups.append(setup)
            if index < SETUPS - 1:
                setup["server"].stop()
                # Drop this set-up's stream and model, so that every
                # set-up's fit runs on the same heap.
                del setup["inputs"], setup["model"]
        first, last = setups[0], setups[-1]
        inputs, model, model_dir = last["inputs"], last["model"], last["model_dir"]
        facts = stream_facts(model, inputs["lines"], inputs["ticks"],
                             _serve_config().episode_gap)
        plain = _pass(workload, last["server"], inputs, facts)
        reference = reference_replay(model, inputs["lines"])
        triggers = reference["triggers"]
        _check(result, plain, inputs["lines"], reference["alerts"])
        guard = _guard(result, model, inputs, trace)
        primary = _primary(workload, plain, triggers)
        result.info["stream"] = dict(facts, predicts=len(facts["predicts"]))
        result.info["alerts"] = len(reference["alerts"])
        result.info["shed_lines"] = plain["client"].shed
        result.info["end_to_end"] = primary
        if workload == "serve-storm":
            result.check("every alert matched to its line",
                         primary["unmatched"] == 0, primary["unmatched"])
            result.check(f"at least {MIN_ALERTS} alerts",
                         primary["alerts"] >= MIN_ALERTS)
            lateness = harness.open_loop_lateness(
                plain["send_at"], plain["client"].line_sent
            )
            result.info["generator_lag_ms_p99"] = harness.ms(
                harness.percentile(lateness, 0.99)
            )
        fits = [s["fit_window"][1] - s["fit_window"][0] for s in setups]
        result.info["fits"] = fits
        result.info["setups"] = [s["setup_s"] for s in setups]
        if not trace:
            result.metric("setup_s", harness.median([s["setup_s"] for s in setups]), "s")
            result.metric("peak_rss_mb", plain["peak_rss_mb"], "MiB")
            # The mean: three fits are about 10 s of fitting together,
            # and the host's speed drifts over seconds, not in outliers.
            result.metric("train_s", sum(fits) / len(fits), "s")
            result.metric("latency_ms", primary["latency_ms"], "ms")
            result.metric("recall_pct", guard["metrics"].recall, "%")
            result.metric("precision_pct", guard["metrics"].precision, "%")
            return result

        server = Server(model_dir, run_dir / "traced.json", True)
        servers.append(server)
        traced = _pass(workload, server, inputs, facts)
        _check(result, traced, inputs["lines"], reference["alerts"])
        doc = json.loads((run_dir / "traced.json.spans").read_text())
        offline.training_metrics(result, first["fit_spans"])
        offline.evaluate_metrics(result, guard["spans"])
        rest = serve_layers.derive(
            result, doc, traced["window"],
            {"ingest_latencies": traced["client"].ingest_latencies,
             "shed": traced["client"].shed,
             "deduped": traced["client"].deduped},
            len(traced["stream"].alerts),
        )
        rest += unattributed(first["fit_spans"], *first["fit_window"])
        rest += unattributed(guard["spans"], *guard["window"])
        result.metric("bench.unattributed_ms", rest * 1e3, "ms")
        traced_latency = _primary(workload, traced, triggers)["latency_ms"]
        result.metric("bench.tracing_overhead_pct",
                      (traced_latency / primary["latency_ms"] - 1.0) * 100.0, "%")
        return result
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(run_dir, ignore_errors=True)
