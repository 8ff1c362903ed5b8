"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Write a synthetic system log (and its ground truth) to disk.
``train``
    Train a Desh model on a raw log file through the staged pipeline
    (stage artifacts cached under ``<model-dir>/cache`` by default) and
    persist the complete model to a model directory.  Re-training with
    a partially changed config re-runs only the invalidated stages.
``predict``
    Load a trained model directory and emit failure warnings for a test
    log.
``pipeline``
    Show a trained model directory's stage DAG: per-stage fingerprints,
    dependencies, cache status and last-run timings.
``evaluate``
    End-to-end: generate (or read) a system, train on the 30% split and
    print the Table-6 metrics plus lead times for the rest.  With
    ``--cache-dir``, training stages and the encoded test stream are
    cached so repeat invocations skip the parse work.  ``--model``
    selects the model-zoo backbone family (``lstm`` or ``tcn``) for
    both ``train`` and ``evaluate``.
``compare``
    The Table-10-style model-zoo grid: train every requested backbone
    family on every requested system and print recall / accuracy /
    mean lead time / per-prediction latency per cell, optionally as
    JSON.  ``--preset tiny`` shrinks the networks to CI-smoke scale.
``chaos``
    Train once, then score the test split clean *and* after seeded fault
    injection + hardened re-ingest; prints the recall/FP-rate deltas and
    the full fault/quarantine accounting.  Also honors ``--cache-dir``.
``trace``
    Run any other subcommand under an enabled tracer: print the nested
    span tree with real durations, the phase-3 per-prediction latency
    summary (the paper's Fig. 10 reports ~0.65 ms), and optionally
    export spans as JSON lines / metrics as JSON.
``metrics``
    Run any other subcommand with an active metrics registry and print
    (or write) the counter/gauge/histogram snapshot as JSON or
    Prometheus text.
``serve``
    Run the fault-tolerant prediction service over a trained model
    directory: sharded streaming monitors behind bounded queues with
    backpressure/load-shedding, supervised workers, per-shard circuit
    breakers, SSE alert streaming and a Prometheus endpoint.  Graceful
    shutdown drains the queues and (with ``--checkpoint-dir``) writes
    an atomic checkpoint that a restart resumes bit-identically.
``soak``
    Chaos-soak the service: train (or load) a model, stream a rendered
    test log through a live service while injecting service faults
    (worker crashes, stalls, ingest bursts) and print the robustness
    report — restarts, recovery times vs the SLO, shed/retry
    accounting, and bit-identity vs a fault-free run.
``lint``
    Run the deshlint static-analysis gate — syntactic rules R1-R5 and
    the dataflow analyses F1-F6 (shape flow, stage artifact flow,
    parallel capture safety, async atomicity, blocking-call
    reachability, orphaned coroutines) — over source paths; exits 1 on
    any finding not covered by an inline suppression or the baseline
    file.  ``--sarif`` additionally writes a SARIF 2.1.0 log for GitHub
    code scanning; ``--rules list`` prints the registry grouped by
    category; ``--jobs N`` analyzes files in parallel.

Examples
--------
::

    python -m repro generate --system M3 --seed 7 --out m3.log.gz \
        --ground-truth m3.json
    python -m repro train --log m3.log.gz --fraction 0.3 --model-dir model/
    python -m repro predict --log m3.log.gz --model-dir model/
    python -m repro evaluate --system M4 --seed 9
    python -m repro compare --models lstm,tcn --system M1
    python -m repro chaos --system M1 --profile moderate --chaos-seed 3
    python -m repro trace predict --log m3.log.gz --model-dir model/
    python -m repro metrics --format prom train --log m3.log.gz \
        --model-dir model/
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis import lead_time_overall
from .config import DeshConfig
from .core import Desh, DeshModel, Phase3Predictor
from .core.deltas import LeadTimeScaler
from .errors import ConfigError, ReproError
from .io import chronological_split, read_records, save_ground_truth, write_log
from .nn.model import SequenceRegressor
from .nn.registry import registered_models
from .parsing import LogParser, PhraseVocabulary
from .simlog import generate_system

__all__ = [
    "main",
    "build_parser",
    "save_model",
    "load_predictor",
    "cmd_generate",
    "cmd_train",
    "cmd_predict",
    "cmd_pipeline",
    "cmd_evaluate",
    "cmd_compare",
    "cmd_report",
    "cmd_chaos",
    "cmd_serve",
    "cmd_soak",
    "cmd_lint",
    "cmd_trace",
    "cmd_metrics",
]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Desh (HPDC'18) reproduction: node-failure lead-time prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic system log")
    g.add_argument("--system", default="M3", help="preset name (M1..M4)")
    g.add_argument("--seed", type=int, default=2018)
    g.add_argument("--out", required=True, help="log file path (.gz supported)")
    g.add_argument("--ground-truth", help="optional ground-truth JSON path")

    t = sub.add_parser("train", help="train Desh on a raw log file")
    t.add_argument("--log", required=True, help="raw training log")
    t.add_argument("--fraction", type=float, default=1.0, help="leading time fraction to use")
    t.add_argument("--model-dir", required=True, help="output directory")
    t.add_argument("--seed", type=int, default=2018)
    t.add_argument(
        "--model",
        default="lstm",
        help=f"model-zoo backbone family ({', '.join(registered_models())})",
    )
    t.add_argument(
        "--cache-dir",
        help="stage artifact cache root (default: <model-dir>/cache)",
    )
    t.add_argument(
        "--no-cache",
        action="store_true",
        help="train fully in memory, skipping the artifact store",
    )

    p = sub.add_parser("predict", help="emit warnings for a test log")
    p.add_argument("--log", required=True, help="raw test log")
    p.add_argument("--model-dir", required=True, help="trained model directory")

    pl = sub.add_parser(
        "pipeline", help="show a model directory's stage DAG and cache status"
    )
    pl.add_argument("--model-dir", required=True, help="trained model directory")

    e = sub.add_parser("evaluate", help="full generate/train/test evaluation")
    e.add_argument("--system", default="M3")
    e.add_argument("--seed", type=int, default=2018)
    e.add_argument("--train-fraction", type=float, default=0.3)
    e.add_argument(
        "--model",
        default="lstm",
        help=f"model-zoo backbone family ({', '.join(registered_models())})",
    )
    e.add_argument(
        "--cache-dir",
        help="artifact cache root for training stages and the parsed test log",
    )

    cp = sub.add_parser(
        "compare",
        help="Table-10-style grid: every model family on every system",
    )
    cp.add_argument(
        "--models",
        default=",".join(registered_models()),
        help="comma-separated model-zoo families to compare "
        "(default: all registered)",
    )
    cp.add_argument(
        "--system",
        default="M1",
        help="comma-separated synthetic systems (M1..M4)",
    )
    cp.add_argument(
        "--preset",
        default="paper",
        choices=["paper", "tiny"],
        help="hyperparameter preset: paper (Table 5) or tiny (CI smoke)",
    )
    cp.add_argument("--seed", type=int, default=2018)
    cp.add_argument("--train-fraction", type=float, default=0.3)
    cp.add_argument("--json", help="also write the grid as JSON to this path")
    cp.add_argument(
        "--cache-dir",
        help="artifact cache root (per-model fingerprints keep cells warm)",
    )

    r = sub.add_parser("report", help="write a markdown evaluation report")
    r.add_argument("--system", default="M3")
    r.add_argument("--seed", type=int, default=2018)
    r.add_argument("--train-fraction", type=float, default=0.3)
    r.add_argument("--out", required=True, help="markdown output path")

    li = sub.add_parser(
        "lint", help="run deshlint static analysis (R1-R5, F1-F6)"
    )
    li.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    li.add_argument("--json", action="store_true", help="machine-readable output")
    li.add_argument(
        "--rules",
        nargs="?",
        const="list",
        help="comma-separated rule subset (e.g. R1,F2); default: all rules; "
        "bare --rules (or --rules list) prints the registry by category",
    )
    li.add_argument(
        "--sarif",
        metavar="PATH",
        help="also write findings as a SARIF 2.1.0 log (GitHub code scanning)",
    )
    li.add_argument(
        "--baseline",
        help="baseline file of grandfathered findings "
        "(default: ./lint-baseline.json when present)",
    )
    li.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    li.add_argument(
        "--update-baseline",
        action="store_true",
        help="grandfather all current findings into the baseline file",
    )
    li.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="analyze N files in parallel (process pool); findings are "
        "reported in the same deterministic order as a serial run",
    )

    tr = sub.add_parser(
        "trace", help="run another subcommand under the tracer"
    )
    tr.add_argument(
        "--trace-out", help="also write the spans as JSON lines"
    )
    tr.add_argument(
        "--metrics-out", help="also write the metrics snapshot as JSON"
    )
    tr.add_argument(
        "wrapped",
        nargs=argparse.REMAINDER,
        help="subcommand (plus its arguments) to run traced",
    )

    mx = sub.add_parser(
        "metrics", help="run another subcommand and report its metrics"
    )
    mx.add_argument(
        "--out", help="write the snapshot to this file instead of stdout"
    )
    mx.add_argument(
        "--format",
        choices=["json", "prom"],
        default="json",
        help="snapshot format: JSON (default) or Prometheus text",
    )
    mx.add_argument(
        "wrapped",
        nargs=argparse.REMAINDER,
        help="subcommand (plus its arguments) to run measured",
    )

    c = sub.add_parser("chaos", help="measure degradation under injected faults")
    c.add_argument("--system", default="M3")
    c.add_argument("--seed", type=int, default=2018)
    c.add_argument("--train-fraction", type=float, default=0.3)
    c.add_argument(
        "--profile",
        default="moderate",
        help="fault profile name (none/mild/moderate/severe)",
    )
    c.add_argument("--chaos-seed", type=int, default=0, help="fault injector seed")
    c.add_argument(
        "--corrupt-rate",
        type=float,
        help="override the profile's line-corruption rate",
    )
    c.add_argument(
        "--reorder-window",
        type=int,
        help="override the profile's reordering window",
    )
    c.add_argument(
        "--max-bad-ratio",
        type=float,
        default=None,
        help="ingest error budget (default: IngestConfig default)",
    )
    c.add_argument(
        "--cache-dir",
        help="artifact cache root for training stages and the parsed test log",
    )

    sv = sub.add_parser(
        "serve", help="run the fault-tolerant prediction service"
    )
    sv.add_argument("--model-dir", required=True, help="trained model directory")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=8633, help="listen port (0 picks a free one)"
    )
    sv.add_argument("--shards", type=int, default=4, help="monitor shards")
    sv.add_argument(
        "--queue-depth", type=int, default=256, help="per-shard queue capacity"
    )
    sv.add_argument(
        "--deadline-ms",
        type=int,
        default=250,
        help="default prediction deadline in milliseconds",
    )
    sv.add_argument(
        "--checkpoint-dir",
        help="write a resume checkpoint here on graceful shutdown "
        "(and restore the latest one on start)",
    )
    sv.add_argument(
        "--no-restore",
        action="store_true",
        help="start fresh even when --checkpoint-dir holds a checkpoint",
    )
    sv.add_argument(
        "--max-seconds",
        type=float,
        help="serve for this long then shut down gracefully (CI smoke)",
    )

    sk = sub.add_parser(
        "soak", help="chaos-soak the prediction service and print the report"
    )
    sk.add_argument("--system", default="M1")
    sk.add_argument("--seed", type=int, default=2018)
    sk.add_argument("--train-fraction", type=float, default=0.3)
    sk.add_argument(
        "--profile",
        default="service-crash",
        help="fault profile name (service-crash/service-storm/...)",
    )
    sk.add_argument("--chaos-seed", type=int, default=0, help="fault injector seed")
    sk.add_argument(
        "--batch-size", type=int, default=64, help="ingest batch size in lines"
    )
    sk.add_argument(
        "--max-lines", type=int, help="cap the soaked stream at this many lines"
    )
    sk.add_argument(
        "--cache-dir", help="artifact cache root for the training stages"
    )
    sk.add_argument("--json", action="store_true", help="print the report as JSON")
    return parser


# ----------------------------------------------------------------------
# model persistence
# ----------------------------------------------------------------------
def save_model(model: DeshModel, directory: str | Path) -> None:
    """Persist a trained model *completely* (pipeline format 2).

    Historically this kept only the phase-2 regressor, vocabulary and
    scaler — a reloaded "model" could score episodes but had lost its
    embeddings, failure chains and classifier.  It now delegates to
    :func:`repro.pipeline.save_model`, whose directory layout is a
    strict superset of the legacy files, so :func:`load_predictor`
    keeps working on newly written directories while
    :meth:`DeshModel.load` restores everything.
    """
    from .pipeline.persist import save_model as _save_full_model

    _save_full_model(model, directory)


def load_predictor(
    directory: str | Path, config: DeshConfig
) -> tuple[LogParser, Phase3Predictor]:
    """Rebuild a parser + phase-3 predictor from a model directory.

    The parser is reconstructed from the persisted vocabulary so phrase
    ids match training exactly; the learned regressor weights and scaler
    parameters come from disk.
    """
    directory = Path(directory)
    regressor = SequenceRegressor.load(directory / "phase2.npz")
    meta = json.loads((directory / "meta.json").read_text())
    scaler = LeadTimeScaler(
        max_lead_seconds=float(meta["max_lead_seconds"]),
        vocab_size=int(meta["vocab_size"]),
        id_scale=float(meta["id_scale"]),
    )
    vocab = PhraseVocabulary.load(directory / "vocab.json")
    parser = LogParser.from_vocabulary(vocab)
    predictor = Phase3Predictor(
        regressor,
        scaler,
        config=config.phase3,
        episode_gap=config.phase2.max_lead_seconds,
    )
    return parser, predictor


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write a synthetic system log (+ ground truth)."""
    log = generate_system(args.system, seed=args.seed)
    count = write_log(args.out, log.records)
    print(f"wrote {count} records to {args.out}")
    if args.ground_truth:
        save_ground_truth(args.ground_truth, log.ground_truth)
        print(f"wrote ground truth to {args.ground_truth}")
    return 0


def _write_pipeline_manifest(
    model_dir: Path, result, data_fingerprint: str, cache_dir: "Path | None"
) -> None:
    """Record the training run's stage provenance next to the model."""
    manifest = {
        "data_fingerprint": data_fingerprint,
        "cache_dir": str(cache_dir) if cache_dir is not None else None,
        "train_classifier": False,
        "stages": [
            {
                "name": r.name,
                "fingerprint": r.fingerprint,
                "cache_hit": r.cache_hit,
                "seconds": r.seconds,
                "deps": list(r.deps),
            }
            for r in result.reports
        ],
    }
    (model_dir / "pipeline.json").write_text(json.dumps(manifest, indent=1))


def cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: fit Desh through the staged pipeline and persist."""
    from .obs import current_tracer
    from .pipeline import DeshPipeline, assemble_model

    with current_tracer().span("ingest.read", path=str(args.log)) as span:
        records = list(read_records(args.log))
        span.set(records=len(records))
    if not 0.0 < args.fraction <= 1.0:
        raise ReproError(f"--fraction must be in (0, 1], got {args.fraction}")
    if args.fraction < 1.0:
        records, _ = chronological_split(records, args.fraction)
    config = DeshConfig(seed=args.seed, model=args.model)
    model_dir = Path(args.model_dir)
    cache_dir: Path | None = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir else model_dir / "cache"
    pipeline = DeshPipeline(config, train_classifier=False, cache_dir=cache_dir)
    data_fingerprint = pipeline.data_fingerprint(records)
    result = pipeline.run(records, data_fingerprint=data_fingerprint)
    model = assemble_model(config, result)
    save_model(model, model_dir)
    _write_pipeline_manifest(model_dir, result, data_fingerprint, cache_dir)
    for r in result.reports:
        status = "cached" if r.cache_hit else "ran"
        print(f"  {r.name:<11} {status:>6} {r.seconds:8.2f}s  {r.fingerprint[:12]}")
    print(
        f"trained on {len(records)} records: {model.num_phrases} phrases, "
        f"{model.num_chains} failure chains -> {args.model_dir}"
        + (f" (cache: {cache_dir})" if cache_dir is not None else "")
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """``repro predict``: emit failure warnings for a test log."""
    from .errors import SerializationError
    from .pipeline.persist import load_model

    config = DeshConfig()
    try:
        model = load_model(args.model_dir)
        parser, predictor = model.parser, model.predictor
    except SerializationError:
        # Legacy (format-1) model directory: regressor + vocab only.
        parser, predictor = load_predictor(args.model_dir, config)
    from .obs import current_tracer

    with current_tracer().span("ingest.read", path=str(args.log)) as span:
        records = list(read_records(args.log))
        span.set(records=len(records))
    parsed = parser.transform(records)
    sequences = [s for s in parsed.by_node().values() if s.node is not None]
    verdicts = predictor.predict_sequences(sequences)
    from .core.alerts import FailureWarning

    warnings = [
        FailureWarning.from_prediction(p) for p in predictor.predictions(verdicts)
    ]
    for w in warnings:
        print(w.message())
    print(f"{len(warnings)} warnings over {len(records)} records", file=sys.stderr)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """``repro pipeline``: print a model directory's stage DAG + cache state."""
    from .config import DeshConfig as _DeshConfig
    from .pipeline import ArtifactStore, PipelineRunner, build_desh_stages

    model_dir = Path(args.model_dir)
    manifest_path = model_dir / "pipeline.json"
    if not manifest_path.exists():
        raise ReproError(
            f"{model_dir} has no pipeline.json; re-train it with `repro train`"
        )
    manifest = json.loads(manifest_path.read_text())
    config_path = model_dir / "config.json"
    if config_path.exists():
        config = _DeshConfig.from_dict(json.loads(config_path.read_text()))
    else:
        config = _DeshConfig()
    cache_dir = manifest.get("cache_dir")
    store = ArtifactStore(cache_dir) if cache_dir else None
    runner = PipelineRunner(
        build_desh_stages(
            config, train_classifier=manifest.get("train_classifier", True)
        ),
        store=store,
    )
    last_run = {s["name"]: s for s in manifest.get("stages", [])}
    plans = runner.plan(manifest["data_fingerprint"])
    print(f"stage DAG for {model_dir} (data {manifest['data_fingerprint'][:12]}):")
    for row in plans:
        deps = ", ".join(row.deps) if row.deps else "(source)"
        status = "cached" if row.cached else "stale" if store else "no-cache"
        seconds = last_run.get(row.name, {}).get("seconds")
        timing = f"{seconds:8.2f}s" if seconds is not None else "       -"
        print(
            f"  {row.name:<11} {row.fingerprint[:16]}  {status:<8} "
            f"{timing}  <- {deps}"
        )
    cached = sum(1 for row in plans if row.cached)
    print(
        f"{cached}/{len(plans)} stages cached"
        + (f" under {cache_dir}" if cache_dir else " (no artifact store)")
    )
    return 0


def _artifact_store(cache_dir: "str | None"):
    """An :class:`ArtifactStore` over *cache_dir*, or ``None``."""
    if cache_dir is None:
        return None
    from .pipeline import ArtifactStore

    return ArtifactStore(cache_dir)


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``repro evaluate``: end-to-end train/test with Table-6 metrics.

    ``--cache-dir`` routes both training and the test-side parse through
    the artifact store: a repeat invocation with the same system/seed
    re-runs nothing but the final phase-3 scoring.
    """
    from .analysis import evaluate_model

    log = generate_system(args.system, seed=args.seed)
    train, test = log.split(args.train_fraction)
    model = Desh(DeshConfig(seed=args.seed, model=args.model)).fit(
        list(train.records), train_classifier=False, cache_dir=args.cache_dir
    )
    result = evaluate_model(
        model,
        list(test.records),
        test.ground_truth,
        store=_artifact_store(args.cache_dir),
    )
    m = result.metrics
    lead = lead_time_overall(result)
    print(f"system {args.system} (seed {args.seed}, model {args.model}):")
    print(f"  recall    {m.recall:6.2f}%   precision {m.precision:6.2f}%")
    print(f"  accuracy  {m.accuracy:6.2f}%   F1        {m.f1:6.2f}%")
    print(f"  FP rate   {m.fp_rate:6.2f}%   FN rate   {m.fn_rate:6.2f}%")
    print(f"  avg lead  {lead.mean:6.1f}s over {lead.count} true positives")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: the Table-10-style model-zoo grid.

    Trains every requested backbone family on every requested system
    and prints the aligned grid (recall / accuracy / lead time /
    per-prediction latency); ``--json`` also writes it as JSON.
    """
    from .analysis import compare_models

    models = [m.strip() for m in args.models.split(",") if m.strip()]
    systems = [s.strip() for s in args.system.split(",") if s.strip()]
    result = compare_models(
        models,
        systems,
        preset=args.preset,
        seed=args.seed,
        train_fraction=args.train_fraction,
        cache_dir=args.cache_dir,
    )
    print(result.render())
    if args.json:
        Path(args.json).write_text(result.to_json())
        print(f"wrote {args.json}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: write a full markdown evaluation report."""
    from .analysis import system_report

    log = generate_system(args.system, seed=args.seed)
    train, test = log.split(args.train_fraction)
    model = Desh(DeshConfig(seed=args.seed)).fit(
        list(train.records), train_classifier=False
    )
    report = system_report(
        model,
        test.records,
        test.ground_truth,
        title=f"Desh evaluation report - system {args.system}",
    )
    Path(args.out).write_text(report)
    print(f"wrote {args.out}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: static-analysis gate; exit 1 on any new finding.

    With no paths, lints the installed ``repro`` package itself (the
    self-lint CI gate).  ``--update-baseline`` grandfathers the current
    findings so the gate only fails on regressions; ``--sarif`` writes
    a SARIF 2.1.0 log alongside the normal output.
    """
    from .lint import Baseline, all_rules, get_rules
    from .lint.engine import lint_modules, load_modules

    if args.rules in ("list", "help"):
        from .lint.rules import rules_by_category

        for category, rules in rules_by_category().items():
            print(f"{category}:")
            for rule in rules:
                print(f"  {rule.id:<4} {rule.summary}")
        return 0

    paths = args.paths or [Path(__file__).parent]
    rules = (
        get_rules(r.strip() for r in args.rules.split(",") if r.strip())
        if args.rules
        else None
    )
    baseline_path: Path | None = None
    if args.baseline:
        baseline_path = Path(args.baseline)
    elif not args.no_baseline and Path("lint-baseline.json").exists():
        baseline_path = Path("lint-baseline.json")

    modules, parse_errors = load_modules(paths)

    if args.update_baseline:
        report = lint_modules(
            modules, rules=rules, parse_errors=parse_errors, jobs=args.jobs
        )
        target = baseline_path or Path("lint-baseline.json")
        Baseline.from_findings(report.findings).save(
            target, findings=report.findings
        )
        print(
            f"wrote baseline with {len(report.findings)} "
            f"grandfathered finding(s) to {target}"
        )
        return 0

    baseline = None
    if baseline_path is not None and not args.no_baseline:
        baseline = Baseline.load(baseline_path)
    report = lint_modules(
        modules,
        rules=rules,
        baseline=baseline,
        parse_errors=parse_errors,
        jobs=args.jobs,
    )

    if args.sarif:
        from .lint.sarif import write_sarif

        effective = list(rules) if rules is not None else all_rules()
        write_sarif(args.sarif, report, effective, root=Path.cwd())
        print(f"wrote SARIF log to {args.sarif}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        for finding in report.findings:
            print(finding.render())
        suffix = (
            f" ({len(report.baselined)} baselined)" if report.baselined else ""
        )
        print(
            f"deshlint: {report.modules} modules, "
            f"{len(report.findings)} finding(s){suffix}"
        )
    return 1 if report.findings else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: report metric degradation under injected faults."""
    import dataclasses

    from .resilience import FAULT_PROFILES, IngestConfig, chaos_evaluation

    if args.profile not in FAULT_PROFILES:
        names = ", ".join(sorted(FAULT_PROFILES))
        raise ReproError(f"unknown fault profile {args.profile!r} (have: {names})")
    profile = FAULT_PROFILES[args.profile]
    overrides = {}
    if args.corrupt_rate is not None:
        overrides["corrupt_rate"] = args.corrupt_rate
    if args.reorder_window is not None:
        overrides["reorder_window"] = args.reorder_window
    if overrides:
        profile = dataclasses.replace(profile, **overrides)
    ingest_config = None
    if args.max_bad_ratio is not None:
        ingest_config = IngestConfig(max_bad_ratio=args.max_bad_ratio)

    log = generate_system(args.system, seed=args.seed)
    train, test = log.split(args.train_fraction)
    model = Desh(DeshConfig(seed=args.seed)).fit(
        list(train.records), train_classifier=False, cache_dir=args.cache_dir
    )
    report = chaos_evaluation(
        model,
        list(test.records),
        test.ground_truth,
        profile,
        seed=args.chaos_seed,
        ingest_config=ingest_config,
        store=_artifact_store(args.cache_dir),
    )
    print(
        f"system {args.system} (seed {args.seed}), "
        f"profile {args.profile} (chaos seed {args.chaos_seed}):"
    )
    print(report.summary())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the prediction service until interrupted.

    Ctrl-C (or ``--max-seconds`` elapsing) triggers graceful shutdown:
    ingest seals, queues drain, workers stop, and — when
    ``--checkpoint-dir`` is set — an atomic resume checkpoint is
    written.  A restart with the same checkpoint dir resumes the stream
    bit-identically.
    """
    import asyncio

    from .pipeline.persist import load_model
    from .serve import ServeConfig, PredictionService, run_server

    model = load_model(args.model_dir)
    config = ServeConfig(
        num_shards=args.shards,
        queue_depth=args.queue_depth,
        deadline_seconds=args.deadline_ms / 1000.0,
        checkpoint_dir=args.checkpoint_dir,
    )
    service = PredictionService(model, config)
    try:
        health = asyncio.run(
            run_server(
                service,
                host=args.host,
                port=args.port,
                max_seconds=args.max_seconds,
                restore=not args.no_restore,
            )
        )
    except KeyboardInterrupt:
        print("interrupted; shut down", file=sys.stderr)
        return 0
    print(
        f"served {sum(s['lines_processed'] for s in health['shards'])} lines, "
        f"{health['alert_seq']} alerts, {health['restarts']} worker restarts"
    )
    return 0


def cmd_soak(args: argparse.Namespace) -> int:
    """``repro soak``: chaos-soak the service and print the report.

    Trains on the leading split of a generated system, renders the rest
    as raw lines, and drives them through a live service under the
    chosen fault profile.  Exits 1 when the soak violates the
    robustness contract (unhandled errors, lost lines, bit-identity
    break, or recovery over the SLO).
    """
    from .resilience import FAULT_PROFILES
    from .serve import RECOVERY_SLO_SECONDS, run_soak
    from .simlog.record import render_line

    if args.profile not in FAULT_PROFILES:
        # Catch a typo *before* spending minutes training the model.
        known = ", ".join(sorted(FAULT_PROFILES))
        raise ConfigError(
            f"unknown fault profile {args.profile!r} (known: {known})"
        )
    log = generate_system(args.system, seed=args.seed)
    train, test = log.split(args.train_fraction)
    model = Desh(DeshConfig(seed=args.seed)).fit(
        list(train.records), train_classifier=False, cache_dir=args.cache_dir
    )
    lines = [render_line(r) for r in test.records]
    if args.max_lines is not None:
        lines = lines[: args.max_lines]
    report = run_soak(
        model,
        lines,
        args.profile,
        seed=args.chaos_seed,
        batch_size=args.batch_size,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=1))
    else:
        print(
            f"soak profile {report.profile} over {report.lines_sent} lines:"
        )
        print(
            f"  accepted {report.accepted}  deduped {report.deduped}  "
            f"shed-events {report.shed_events}  retries {report.retries}  "
            f"lost {report.lost}"
        )
        print(
            f"  crashes {report.crashes_injected}  stalls "
            f"{report.stalls_injected}  bursts {report.bursts_injected}  "
            f"restarts {report.worker_restarts}"
        )
        print(
            f"  max recovery {report.max_recovery_seconds * 1000:.1f} ms "
            f"(SLO {RECOVERY_SLO_SECONDS:.1f} s)  alerts {report.alerts}  "
            f"bit-identical {report.bit_identical}"
        )
    ok = (
        not report.unhandled_errors
        and report.lost == 0
        and report.workers_given_up == 0
        and report.bit_identical is not False
        and report.max_recovery_seconds <= RECOVERY_SLO_SECONDS
    )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# observability wrappers
# ----------------------------------------------------------------------
def _wrapped_command(
    wrapped: Sequence[str], outer: str
) -> tuple[str, argparse.Namespace]:
    """Validate and parse the subcommand wrapped by trace/metrics."""
    wrapped = list(wrapped)
    if wrapped and wrapped[0] == "--":
        wrapped = wrapped[1:]
    if not wrapped:
        raise ConfigError(
            f"repro {outer} needs a subcommand to run, "
            f"e.g. `repro {outer} train --log sys.log --model-dir model/`"
        )
    name = wrapped[0]
    if name in ("trace", "metrics"):
        raise ConfigError(
            f"unknown subcommand for repro {outer}: {name!r} "
            "(observability commands cannot nest)"
        )
    if name not in _COMMANDS:
        known = ", ".join(
            sorted(n for n in _COMMANDS if n not in ("trace", "metrics"))
        )
        raise ConfigError(
            f"unknown subcommand for repro {outer}: {name!r} (have: {known})"
        )
    return name, build_parser().parse_args(wrapped)


def _export_path(value: "str | None", flag: str) -> "Path | None":
    """Resolve one export flag; reject paths that cannot hold a file."""
    if value is None:
        return None
    path = Path(value)
    if path.is_dir():
        raise ConfigError(f"{flag} path {path} is an existing directory")
    if path.parent != Path("") and not path.parent.is_dir():
        raise ConfigError(f"{flag} parent directory {path.parent} does not exist")
    return path


def _print_latency_summary(registry) -> None:
    """Print the phase-3 per-prediction latency beside the paper's claim."""
    hist = registry.get("phase3.prediction_ms")
    if hist is None or hist.count == 0:
        return
    print(
        "phase3.prediction_ms: "
        f"p50 {hist.quantile(0.5):.3f} ms, "
        f"p95 {hist.quantile(0.95):.3f} ms, "
        f"p99 {hist.quantile(0.99):.3f} ms "
        f"over {hist.count} predictions "
        "(paper Fig. 10: ~0.65 ms per prediction)"
    )


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: run a subcommand under an enabled tracer.

    Prints the nested span tree with real durations and the phase-3
    latency summary; ``--trace-out`` additionally exports the spans as
    JSON lines and ``--metrics-out`` the metrics snapshot as JSON.
    """
    from .obs import MetricsRegistry, Tracer, activate_metrics, activate_tracer

    name, wrapped = _wrapped_command(args.wrapped, "trace")
    trace_out = _export_path(args.trace_out, "--trace-out")
    metrics_out = _export_path(args.metrics_out, "--metrics-out")
    if (
        trace_out is not None
        and metrics_out is not None
        and trace_out.resolve() == metrics_out.resolve()
    ):
        raise ConfigError(
            f"--trace-out and --metrics-out collide on {trace_out}"
        )
    tracer = Tracer()
    registry = MetricsRegistry(active=True)
    with activate_tracer(tracer), activate_metrics(registry):
        with tracer.span(f"repro.{name}"):
            code = _COMMANDS[name](wrapped)
    tree = tracer.describe(mask_durations=False)
    if tree:
        print(tree)
    _print_latency_summary(registry)
    if trace_out is not None:
        count = tracer.export_jsonl(trace_out)
        print(f"wrote {count} spans to {trace_out}", file=sys.stderr)
    if metrics_out is not None:
        metrics_out.write_text(registry.to_json())
        print(f"wrote metrics snapshot to {metrics_out}", file=sys.stderr)
    return code


def cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics``: run a subcommand and report its metrics.

    The wrapped command runs with an *active* registry (which also turns
    on the timed instrumentation, e.g. the phase-3 latency histogram);
    the snapshot is printed as JSON or Prometheus text, or written to
    ``--out``.
    """
    from .obs import MetricsRegistry, activate_metrics

    name, wrapped = _wrapped_command(args.wrapped, "metrics")
    out = _export_path(args.out, "--out")
    registry = MetricsRegistry(active=True)
    with activate_metrics(registry):
        code = _COMMANDS[name](wrapped)
    text = (
        registry.to_json()
        if args.format == "json"
        else registry.to_prometheus()
    )
    if out is not None:
        out.write_text(text)
        print(f"wrote metrics snapshot to {out}", file=sys.stderr)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    _print_latency_summary(registry)
    return code


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "predict": cmd_predict,
    "pipeline": cmd_pipeline,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "report": cmd_report,
    "chaos": cmd_chaos,
    "serve": cmd_serve,
    "soak": cmd_soak,
    "lint": cmd_lint,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
