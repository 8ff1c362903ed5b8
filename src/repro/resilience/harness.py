"""Chaos-evaluation harness: measure degradation under injected faults.

The operational question behind every fault model is *bounded
degradation*: if x% of the feed is damaged, how much recall is lost and
how many extra false positives appear?  :func:`chaos_evaluation` answers
it by scoring the same trained model twice — once on the clean test
records and once on the chaos-injected, hardened-ingest version of the
same records — and reporting the metric deltas together with the full
fault and quarantine accounting.

This is the engine behind the ``repro chaos`` CLI subcommand, the
``bench_chaos_degradation`` benchmark and the chaos acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..analysis.evaluation import EvaluationResult
from ..analysis.metrics import PredictionMetrics
from ..simlog.generator import GroundTruth
from ..simlog.record import LogRecord
from .chaos import ChaosInjector, ChaosStats, FaultProfile
from .ingest import HardenedIngestor, IngestConfig, IngestStats

__all__ = ["ChaosReport", "chaos_evaluation"]


@dataclass
class ChaosReport:
    """Clean-vs-chaos evaluation of one model under one fault profile."""

    profile: FaultProfile
    clean: EvaluationResult
    chaotic: EvaluationResult
    chaos_stats: ChaosStats
    ingest_stats: IngestStats
    dead_letters: int

    @property
    def clean_metrics(self) -> PredictionMetrics:
        """Table-6 metrics of the clean run."""
        return self.clean.metrics

    @property
    def chaotic_metrics(self) -> PredictionMetrics:
        """Table-6 metrics of the fault-injected run."""
        return self.chaotic.metrics

    @property
    def recall_delta(self) -> float:
        """Recall lost to the faults, in percentage points (>= 0 is loss)."""
        return self.clean_metrics.recall - self.chaotic_metrics.recall

    @property
    def fp_rate_delta(self) -> float:
        """False-positive-rate change in percentage points (> 0 is worse)."""
        return self.chaotic_metrics.fp_rate - self.clean_metrics.fp_rate

    @property
    def lines_accounted(self) -> bool:
        """Whether every injected line is accounted for by the ingest stats.

        The injector's emitted-line count must equal the ingestor's seen
        count, and every seen line must be either parsed, quarantined,
        deduplicated or blank-skipped — no silent losses.
        """
        s = self.ingest_stats
        return (
            self.chaos_stats.lines_out == s.lines_seen
            and s.lines_seen
            == s.records_out + s.quarantined + s.duplicates_dropped + s.blank_skipped
        )

    def summary(self) -> str:
        """Human-readable clean-vs-chaos table (CLI output)."""
        c, f = self.clean_metrics, self.chaotic_metrics
        lines = [
            "metric       clean    chaos    delta",
            f"recall     {c.recall:7.2f}% {f.recall:7.2f}% {f.recall - c.recall:+7.2f}pp",
            f"precision  {c.precision:7.2f}% {f.precision:7.2f}% {f.precision - c.precision:+7.2f}pp",
            f"F1         {c.f1:7.2f}% {f.f1:7.2f}% {f.f1 - c.f1:+7.2f}pp",
            f"FP rate    {c.fp_rate:7.2f}% {f.fp_rate:7.2f}% {f.fp_rate - c.fp_rate:+7.2f}pp",
            f"FN rate    {c.fn_rate:7.2f}% {f.fn_rate:7.2f}% {f.fn_rate - c.fn_rate:+7.2f}pp",
            "",
            f"faults: {self.chaos_stats.faults_applied} applied over "
            f"{self.chaos_stats.lines_in} lines "
            f"({self.chaos_stats.as_dict()})",
            f"ingest: {self.ingest_stats.as_dict()}",
            f"dead letters kept: {self.dead_letters}",
            f"all lines accounted for: {self.lines_accounted}",
        ]
        return "\n".join(lines)


def chaos_evaluation(
    model,
    records: Sequence[LogRecord],
    ground_truth: GroundTruth,
    profile: FaultProfile,
    *,
    seed: int = 0,
    ingest_config: IngestConfig | None = None,
    store=None,
) -> ChaosReport:
    """Evaluate *model* on clean and fault-injected versions of *records*.

    The fault path renders the records to raw syslog lines, pushes them
    through a seeded :class:`~repro.resilience.chaos.ChaosInjector` with
    *profile*, and re-ingests them with a
    :class:`~repro.resilience.ingest.HardenedIngestor` — exactly the
    path a production feed would take.  Both runs are scored against the
    same ground truth.

    With *store* (a :class:`~repro.pipeline.ArtifactStore`), both the
    clean and the post-ingest encoded streams are cached keyed by
    (vocabulary, records): sweeping fault profiles against the same
    model and test split re-parses nothing.
    """
    from ..analysis.evaluation import evaluate_model

    clean_result = evaluate_model(model, records, ground_truth, store=store)

    injector = ChaosInjector(profile, seed=seed)
    ingestor = HardenedIngestor(ingest_config)
    chaotic_records = list(ingestor.ingest_lines(injector.inject_records(records)))
    chaotic_result = evaluate_model(
        model, chaotic_records, ground_truth, store=store
    )
    return ChaosReport(
        profile=profile,
        clean=clean_result,
        chaotic=chaotic_result,
        chaos_stats=injector.stats,
        ingest_stats=ingestor.stats,
        dead_letters=len(ingestor.dead_letters),
    )
