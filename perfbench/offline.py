"""Workload ``offline-m1``: train Desh on M1 and evaluate it (Table 6).

It fits Desh (Table-5 architecture and defaults, except a reduced
phase-2 epoch budget) on the 30% training split of the pinned M1 log,
then scores the 70% test split of the M1 log generated from ``--seed``
with ``evaluate_model`` several times back to back.  The quality guard
(recall, precision) scores the pinned log's own test split once,
untimed.  The traced pass also replays the test split through an
in-process ``PredictionService``, so the serving layers' per-layer
metrics exist for this workload too (without HTTP).

Training data is pinned because its work varies with the log, not with
the code: across seeds 1-5 the training split held 678 to 978 phase-2
windows, which moved ``Desh.fit`` by about +-20%; the test splits differ
by about 1% in size.  Table-6 recall moves by tens of points from one
log to the next (22% to 63% on seeds 1-4), so only a pinned log can
guard quality.

The training and evaluation probes and their per-layer metrics live here
and are shared with the serve workloads, which fit their serving model
and run the quality guard in the generator process.
"""

from __future__ import annotations

import time
from dataclasses import replace

from . import harness
from .spans import NAME, START, LayerStats, SpanRecorder, reindex, unattributed

#: Phase-2 epochs (the paper's 400 take ~65 s here; 40 take ~6 s).
PHASE2_EPOCHS = 40
#: Set-ups per run (setup_s is their median).
SETUPS = 3
#: The M1 log that trains the model and guards its quality.
PINNED_SEED = 2018
#: Back-to-back evaluate_model repeats per run (latency_ms is their
#: median); with the fit, about 24 s of measurement.
EVALUATES = 9
#: Lines per ``ingest_lines`` call in the traced in-process replay: small
#: enough that the test split makes the >= 1010 queue items a p99 needs.
REPLAY_BATCH = 32

_STAGES = ("parse", "embeddings", "chains", "phase2", "phase3")


def _inputs(seed: int):
    from repro.simlog import generate_system

    log = generate_system("M1", seed=seed)
    train, test = log.split(0.3)
    return list(train.records), list(test.records), test.ground_truth


def pinned_inputs():
    """(train records, test records, test ground truth) of the pinned log."""
    return _inputs(PINNED_SEED)


def _config():
    from repro.config import DeshConfig

    config = DeshConfig()  # Table-5 defaults, model seed included
    return replace(config, phase2=replace(config.phase2, epochs=PHASE2_EPOCHS))


def _expected_episodes(model, test_records) -> int:
    """Episodes the test split holds, counted independently of scoring."""
    from repro.core.chains import segment_episodes

    parsed = model.parser.transform(test_records)
    return sum(
        len(segment_episodes(
            seq,
            gap=model.predictor.episode_gap,
            min_events=model.predictor.config.min_chain_events,
        ))
        for seq in parsed.by_node().values()
        if seq.node is not None
    )


# ----------------------------------------------------------------------
# probes and their per-layer metrics
# ----------------------------------------------------------------------
def install_training(recorder: SpanRecorder) -> None:
    """Wrap ``Desh.fit``'s stages and the phase-2 trainer."""
    from repro.nn.model import SequenceRegressor
    from repro.pipeline import stages

    for stage, name in zip(
        ("ParseStage", "EmbeddingStage", "ChainStage", "Phase2Stage",
         "Phase3Stage"),
        _STAGES,
    ):
        owner = getattr(stages, stage, None)
        if owner is None:
            recorder.missing.append(stage)
            continue
        recorder.wrap(owner, "run", f"pipeline.{name}")
    recorder.wrap(
        SequenceRegressor, "fit", "nn.fit",
        counts=lambda a, k, r: {"windows": len(a[1]),
                                "epochs": k.get("epochs", 30)},
    )


def install_evaluate(recorder: SpanRecorder) -> None:
    """Wrap ``evaluate_model``'s layers (the offline scoring path)."""
    from repro.analysis.evaluation import Evaluator
    from repro.core.phase3 import Phase3Predictor
    from repro.nn.model import SequenceRegressor
    from repro.parsing.pipeline import LogParser

    recorder.wrap(
        SequenceRegressor, "predict", "nn.train_forward",
        counts=lambda a, k, r: {"rows": len(a[1])},
    )
    recorder.wrap(LogParser, "transform", "parsing.transform")
    recorder.wrap(Phase3Predictor, "score_episode", "phase3.score_episode")
    recorder.wrap(Evaluator, "evaluate", "analysis.evaluate")


def training_metrics(result: harness.Result, spans) -> None:
    """Per-layer metrics of one traced ``Desh.fit``."""
    fit = LayerStats(spans)
    for stage in _STAGES:
        name = f"pipeline.{stage}"
        result.metric(f"{name}_s", fit.total.get(name), "s")
    epochs = fit.count("nn.fit", "epochs")
    if epochs:
        result.metric("nn.fit_epoch_ms", fit.total["nn.fit"] * 1e3 / epochs, "ms")
        result.metric("nn.fit_windows", fit.count("nn.fit", "windows"), "count")


def evaluate_metrics(result: harness.Result, spans) -> None:
    """Per-layer metrics of one traced ``evaluate_model``."""
    ev = LayerStats(spans)
    result.metric("parsing.transform_s", ev.total.get("parsing.transform"), "s")
    result.metric("phase3.score_episode_calls",
                  ev.calls.get("phase3.score_episode"), "count")
    if "phase3.score_episode" in ev.self_total:
        result.metric("phase3.score_episode_self_ms",
                      ev.self_total["phase3.score_episode"] * 1e3, "ms")
    rows = ev.count("nn.train_forward", "rows")
    if rows:
        result.metric("nn.train_forward_rows", rows, "count")
        result.metric("nn.train_forward_us_per_window",
                      ev.total["nn.train_forward"] * 1e6 / rows, "us")
    if "analysis.evaluate" in ev.total:
        result.metric("analysis.evaluate_ms", ev.total["analysis.evaluate"] * 1e3, "ms")


def quality_guard(result: harness.Result, model, pinned_test, pinned_truth):
    """Score the pinned test split once (untimed), check it and return
    its Table-6 metrics."""
    from repro.analysis import evaluate_model

    guard = {"results": [evaluate_model(model, pinned_test, pinned_truth)]}
    _check(result, model, pinned_test, guard, "pinned")
    return guard["results"][0].metrics


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _one_pass(train, test, truth, config, evaluates: int):
    """Fit once, evaluate *evaluates* times; returns timings and results."""
    from repro.analysis import evaluate_model
    from repro.core import Desh

    t0 = time.perf_counter()
    model = Desh(config).fit(train, train_classifier=False)
    t1 = time.perf_counter()
    eval_times, results = [], []
    for _ in range(evaluates):
        start = time.perf_counter()
        results.append(evaluate_model(model, test, truth))
        eval_times.append(time.perf_counter() - start)
    return {
        "model": model,
        "train_s": t1 - t0,
        "eval_times": eval_times,
        "results": results,
        "window": (t0, time.perf_counter()),
    }


def _check(result: harness.Result, model, test, measured, tag="run") -> None:
    first = measured["results"][0]
    counts = first.counts
    expected = _expected_episodes(model, test)
    result.attempted += 1 + expected * len(measured["results"])
    result.check(f"every test episode scored ({tag})", len(first.scored) == expected,
                 failed_ops=abs(len(first.scored) - expected))
    for later in measured["results"][1:]:
        result.check(
            f"repeat evaluations agree ({tag})",
            (later.counts.tp, later.counts.fp, later.counts.fn, later.counts.tn)
            == (counts.tp, counts.fp, counts.fn, counts.tn),
            failed_ops=expected,
        )
    result.check(f"a failure was predicted ({tag})", counts.tp > 0)
    result.info[f"confusion_{tag}"] = {
        "tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn,
        "episodes": expected,
    }


def run(seed: int, trace: bool) -> harness.Result:
    """One offline-m1 run.  Its work is fixed (one fit, EVALUATES
    evaluations), so it takes no ``--seconds``."""
    result = harness.Result()
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        train, pinned_test, pinned_truth = pinned_inputs()
        _, test, truth = _inputs(seed)
        setups.append(time.perf_counter() - start)
    config = _config()
    result.info["phase2_epochs"] = PHASE2_EPOCHS
    result.info["lines"] = {"train": len(train), "test": len(test)}

    if not trace:
        measured = _one_pass(train, test, truth, config, EVALUATES)
        _check(result, measured["model"], test, measured)
        metrics = quality_guard(result, measured["model"], pinned_test, pinned_truth)
        evaluate_s = harness.median(measured["eval_times"])
        result.metric("setup_s", harness.median(setups), "s")
        result.metric("peak_rss_mb", harness.peak_rss_mb(), "MiB")
        result.metric("train_s", measured["train_s"], "s")
        result.metric("latency_ms", evaluate_s * 1e3, "ms")
        result.metric("recall_pct", metrics.recall, "%")
        result.metric("precision_pct", metrics.precision, "%")
        result.info["evaluate_repeats"] = len(measured["eval_times"])
        result.info["evaluate_lines_per_s"] = len(test) / evaluate_s
        return result

    plain = _one_pass(train, test, truth, config, 1)
    recorder = SpanRecorder()
    install_training(recorder)
    install_evaluate(recorder)
    traced = _one_pass(train, test, truth, config, 1)
    recorder.unwrap_all()
    _check(result, traced["model"], test, traced)
    replay = _traced_replay(result, traced["model"], test)
    recorder.dump(str(_trace_path(seed)), extra={"replay": replay["doc"]})
    _layer_metrics(result, recorder, plain, traced, replay)
    return result


def _traced_replay(result: harness.Result, model, test) -> dict:
    """Replay the test split through an in-process ``PredictionService``
    with the serving layers wrapped; check every line was taken."""
    from repro.simlog.record import render_line

    from . import serve, serve_layers

    lines = [render_line(r) for r in test]
    recorder = SpanRecorder()
    probes = serve_layers.install(recorder)
    try:
        replay = serve.reference_replay(model, lines, REPLAY_BATCH)
    finally:
        recorder.unwrap_all()
    result.attempted += len(lines)
    lost = len(lines) - replay["accepted"] - replay["deduped"]
    result.check("replay took every line", lost == 0, abs(lost))
    replay["doc"] = dict(spans=recorder.closed(), missing=recorder.missing,
                         **probes.as_dict())
    return replay


def _trace_path(seed: int):
    harness.OUT.mkdir(exist_ok=True)
    return harness.OUT / f"offline-m1.seed{seed}.spans.json"


def _layer_metrics(result, recorder, plain, traced, replay) -> None:
    from . import serve_layers

    spans = recorder.closed()
    lo, hi = traced["window"]
    fit_end = lo + traced["train_s"]
    training_metrics(result, reindex(spans, lambda s: s[START] < fit_end))
    evaluate_metrics(result, reindex(spans, lambda s: s[START] >= fit_end))
    rest = serve_layers.derive(
        result, replay["doc"], replay["window"], replay, len(replay["alerts"]),
    )
    result.metric(
        "bench.unattributed_ms", (unattributed(spans, lo, hi) + rest) * 1e3, "ms",
    )
    base = plain["train_s"] + plain["eval_times"][0]
    with_trace = traced["train_s"] + traced["eval_times"][0]
    result.metric("bench.tracing_overhead_pct", (with_trace / base - 1.0) * 100.0, "%")
    result.info["traced_names"] = sorted({s[NAME] for s in spans})
    result.info["not_traced"] = recorder.missing
