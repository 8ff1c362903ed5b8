"""Server-side layer probes (installed in the launcher) and the per-layer
metrics derived from them (computed in the generator).

Spans wrap the public functions at each serving layer boundary; a few
counters that would cost a dict per line (encode outcomes, drain sizes,
queue waits) are kept as plain lists and totals beside the spans.
Queue wait is the time from ``ShardQueue.offer_wait`` admitting a batch
to ``StreamingMonitor.feed_line_batch`` starting on that same batch
object.
"""

from __future__ import annotations

import time
from typing import Optional

from . import harness
from .spans import LayerStats, SpanRecorder, unattributed


class Probes:
    """Counters kept beside the spans in the server process."""

    def __init__(self) -> None:
        self.admitted: dict[int, float] = {}
        self.queue_waits: list[float] = []
        self.drains: list[int] = []
        self.encoded = 0
        self.scored = 0
        self.ingestors: dict[int, object] = {}

    def as_dict(self) -> dict:
        return {
            "queue_waits": self.queue_waits,
            "drains": self.drains,
            "encoded": self.encoded,
            "scored": self.scored,
            "quarantined": sum(
                ing.stats.quarantined for ing in self.ingestors.values()
            ),
        }


def install(recorder: SpanRecorder) -> Probes:
    """Wrap the serving layers' functions; call before the server starts."""
    import selectors

    from repro.core.deltas import LeadTimeScaler
    from repro.core.monitor import StreamingMonitor
    from repro.core.phase3 import Phase3Predictor
    from repro.nn.batched import BatchedScorer
    from repro.nn.layers import Dense
    from repro.nn.lstm import StackedLSTM
    from repro.parsing.labeling import Label
    from repro.parsing.pipeline import LogParser
    from repro.resilience.ingest import HardenedIngestor
    from repro.serve.queues import ShardQueue
    from repro.serve.server import HttpServer
    from repro.serve.service import PredictionService

    probes = Probes()

    def admitted(args, kwargs, result):
        item = args[1]
        if result and isinstance(item, tuple) and item and item[0] == "lines":
            probes.admitted[id(item[1])] = time.perf_counter()

    def feed_start(args, kwargs):
        when = probes.admitted.pop(id(args[1]), None)
        if when is not None:
            probes.queue_waits.append(time.perf_counter() - when)
        return recorder.new_batch()

    def accepted(args, kwargs, result):
        probes.ingestors.setdefault(id(args[0]), args[0])

    def encoded(args, kwargs, result):
        probes.encoded += 1
        if result is not None and result.label != Label.SAFE:
            probes.scored += 1

    # The event loop's wait for I/O: idle time, so it is not unattributed.
    recorder.wrap(selectors.DefaultSelector, "select", "loop.idle")
    recorder.wrap(HttpServer, "_read_request", "serve.http_read")
    recorder.wrap(
        HttpServer, "_dispatch", "serve.http_dispatch",
        skip=lambda a, k: a[3] == "/alerts",  # the SSE stream lives all run
    )
    recorder.wrap(PredictionService, "ingest_lines", "serve.ingest",
                  batch=lambda a, k: recorder.new_batch())
    recorder.wrap(ShardQueue, "offer_wait", "serve.offer_wait", counts=admitted)
    recorder.observe(ShardQueue, "peek_many",
                     lambda a, k, r, t: probes.drains.append(len(r)))
    recorder.wrap(PredictionService, "predict", "serve.predict",
                  batch=lambda a, k: recorder.new_batch())
    recorder.wrap(StreamingMonitor, "feed_line_batch", "monitor.feed_line_batch",
                  batch=feed_start)
    recorder.wrap(HardenedIngestor, "accept_line", "resilience.accept_line",
                  counts=accepted)
    recorder.wrap(StreamingMonitor, "feed_batch", "monitor.feed_batch",
                  counts=lambda a, k, r: {"records": len(a[1])})
    recorder.wrap(LogParser, "encode", "parsing.encode", counts=encoded)
    recorder.wrap(
        Phase3Predictor, "score_partial_batch", "phase3.score_partial_batch",
        counts=lambda a, k, r: {"units": len(a[1])},
    )
    recorder.wrap(Phase3Predictor, "score_partial", "phase3.score_partial")
    recorder.wrap(BatchedScorer, "chain_matrix", "nn.chain_matrix",
                  counts=lambda a, k, r: {"rows": len(r[0]) if r else 0})
    recorder.wrap(BatchedScorer, "predict_batch", "nn.predict_batch",
                  counts=lambda a, k, r: {"rows": len(a[1])})
    recorder.wrap(StackedLSTM, "forward_infer", "nn.lstm_forward_infer")
    recorder.wrap(Dense, "forward_stable", "nn.head_forward_stable")
    recorder.wrap(LeadTimeScaler, "mse_paper_units", "nn.verdict")
    return probes


def _mean_us(stats: LayerStats, name: str) -> Optional[float]:
    calls = stats.calls.get(name)
    return stats.total[name] * 1e6 / calls if calls else None


def _total_ms(stats: LayerStats, name: str, own: bool = False) -> Optional[float]:
    table = stats.self_total if own else stats.total
    return table[name] * 1e3 if name in table else None


def derive(
    result: harness.Result,
    doc: dict,
    window: tuple[float, float],
    client: dict,
    alerts: int,
) -> float:
    """Per-layer metrics of one traced pass through the service; returns
    the seconds of *window* that no span covers.

    *doc* is the span dump (the launcher's, or an in-process replay's),
    *window* the measured interval (same monotonic clock), *client* the
    caller's own observations (``ingest_latencies`` of each ingest call
    as the caller saw it, ``shed`` and ``deduped`` lines), *alerts* the
    alerts received.
    """
    spans = doc["spans"]
    stats = LayerStats(spans)
    m = result.metric
    m("serve.ingest_call_ms_p50",
      harness.ms(harness.percentile(client["ingest_latencies"], 0.5)), "ms")
    m("serve.ingest_self_ms", _total_ms(stats, "serve.ingest", own=True), "ms")
    m("serve.shed_lines", client["shed"], "count")
    m("serve.deduped_lines", client["deduped"], "count")
    m("resilience.accept_line_us", _mean_us(stats, "resilience.accept_line"), "us")
    m("resilience.quarantined", doc["quarantined"], "count")
    m("parsing.encode_us", _mean_us(stats, "parsing.encode"), "us")
    if doc["encoded"]:
        m("parsing.scored_share", doc["scored"] / doc["encoded"], "ratio")
    m("monitor.feed_batch_self_ms", _total_ms(stats, "monitor.feed_batch", own=True), "ms")
    flushes = stats.calls.get("monitor.feed_batch")
    if flushes:
        m("monitor.records_per_flush",
          stats.count("monitor.feed_batch", "records") / flushes, "count")
    waits = doc["queue_waits"]
    m("serve.queue_wait_ms_p50", harness.ms(harness.percentile(waits, 0.5)), "ms")
    m("serve.queue_wait_ms_p99", harness.ms(harness.percentile(waits, 0.99)), "ms")
    if doc["drains"]:
        m("serve.items_per_drain", sum(doc["drains"]) / len(doc["drains"]), "count")
    scores = stats.calls.get("phase3.score_partial_batch")
    units = stats.count("phase3.score_partial_batch", "units")
    if scores:
        m("phase3.units_per_flush", units / scores, "count")
        m("phase3.score_partial_batch_self_ms",
          _total_ms(stats, "phase3.score_partial_batch", own=True), "ms")
    if units:
        m("phase3.alerts_per_score", alerts / units, "ratio")
    m("nn.chain_matrix_us", _mean_us(stats, "nn.chain_matrix"), "us")
    windows = stats.count("nn.chain_matrix", "rows")
    if stats.calls.get("nn.chain_matrix"):
        m("nn.windows_per_unit", windows / stats.calls["nn.chain_matrix"], "count")
    rows = stats.count("nn.predict_batch", "rows")
    if rows:
        m("nn.infer_rows", rows, "count")
        m("nn.infer_us_per_window", stats.total["nn.predict_batch"] * 1e6 / rows, "us")
    m("nn.lstm_forward_infer_ms", _total_ms(stats, "nn.lstm_forward_infer"), "ms")
    m("nn.head_forward_stable_ms", _total_ms(stats, "nn.head_forward_stable"), "ms")
    m("nn.verdict_ms", _total_ms(stats, "nn.verdict"), "ms")
    if units:
        m("nn.windows_per_scored_event", windows / units, "count")
    if stats.calls.get("phase3.score_partial"):
        result.info["score_partial_ms"] = (
            stats.total["phase3.score_partial"] * 1e3
            / stats.calls["phase3.score_partial"]
        )
    result.info["service_idle_ms"] = _total_ms(stats, "loop.idle")
    result.info["service_traced_names"] = sorted(stats.calls)
    result.info["service_not_traced"] = doc.get("missing", [])
    return unattributed(spans, *window)
