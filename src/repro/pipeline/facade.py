"""High-level entry points: train Desh through the staged pipeline.

:class:`DeshPipeline` builds the stage DAG for one configuration, runs
it (optionally against an on-disk :class:`ArtifactStore`), and
assembles the resulting artifacts into a :class:`DeshModel`.
``Desh.fit`` is a thin facade over this class.

:func:`cached_transform` is the inference-side counterpart: it encodes
*test* records with a fitted parser, caching the encoded event stream
keyed by (vocabulary, records) so sweeps, evaluations and chaos runs
stop re-parsing the same raw log on every invocation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from ..config import DeshConfig
from ..core.phase1 import Phase1Result
from ..errors import ArtifactError
from ..core.phase3 import Phase3Predictor
from ..parsing.pipeline import LogParser, ParseResult
from ..simlog.record import LogRecord
from .artifacts import ArtifactStore
from .fingerprint import fingerprint_payload, fingerprint_records
from .runner import LIVE, PipelineResult, PipelineRunner
from .serialize import load_events, read_json, save_events, write_json
from .stage import StageContext
from .stages import ParseArtifact, Phase3Spec, build_desh_stages

__all__ = ["DeshPipeline", "assemble_model", "cached_transform"]


class DeshPipeline:
    """The staged Desh training pipeline with optional artifact caching.

    Parameters
    ----------
    config:
        Full pipeline configuration (defaults to :class:`DeshConfig`).
    train_classifier:
        Whether the ``phase1`` stage trains the phrase LSTM.
    cache_dir:
        Root of the on-disk artifact store; ``None`` runs fully
        in-memory.
    checkpoint_dir:
        Optional crash-checkpoint root for the LSTM fits (same layout
        as ``Desh.fit(checkpoint_dir=...)``: ``<dir>/phase1``,
        ``<dir>/phase2``).
    """

    def __init__(
        self,
        config: DeshConfig | None = None,
        *,
        train_classifier: bool = True,
        cache_dir: "str | Path | None" = None,
        checkpoint_dir: "str | Path | None" = None,
    ) -> None:
        self.config = config if config is not None else DeshConfig()
        self.store = (
            ArtifactStore(cache_dir) if cache_dir is not None else None
        )
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.runner = PipelineRunner(
            build_desh_stages(self.config, train_classifier=train_classifier),
            store=self.store,
        )

    # ------------------------------------------------------------------
    def data_fingerprint(self, records: Sequence[LogRecord]) -> str:
        """The cache key contribution of the training records."""
        if self.store is None:
            return LIVE  # no cache: skip the hashing pass entirely
        return fingerprint_records(records)

    def run(
        self,
        records: Sequence[LogRecord],
        *,
        data_fingerprint: str | None = None,
    ) -> PipelineResult:
        """Execute the DAG over *records*; returns all stage artifacts."""
        if data_fingerprint is None:
            data_fingerprint = self.data_fingerprint(records)
        ctx = StageContext(
            config=self.config,
            records=records,
            checkpoint_root=self.checkpoint_dir,
        )
        return self.runner.run(ctx, data_fingerprint=data_fingerprint)

    def fit(
        self,
        records: Sequence[LogRecord],
        *,
        data_fingerprint: str | None = None,
    ):
        """Train (or cache-restore) the full pipeline into a model."""
        result = self.run(records, data_fingerprint=data_fingerprint)
        return assemble_model(self.config, result)


def assemble_model(config: DeshConfig, result: PipelineResult):
    """Compose stage artifacts into a :class:`~repro.core.desh.DeshModel`."""
    from ..core.desh import DeshModel

    parse: ParseArtifact = result.value("parse")
    phase1_art = result.value("phase1")
    spec: Phase3Spec = result.value("phase3")
    phase2 = result.value("phase2")
    sequences = [
        seq for seq in parse.parsed.by_node().values() if seq.node is not None
    ]
    phase1 = Phase1Result(
        embedder=result.value("embeddings"),
        classifier=phase1_art.classifier,
        chains=list(result.value("chains")),
        sequences=sequences,
        train_accuracy=phase1_art.train_accuracy,
        losses=list(phase1_art.losses),
    )
    predictor = Phase3Predictor(
        phase2.regressor,
        phase2.scaler,
        config=spec.config,
        episode_gap=spec.episode_gap,
    )
    return DeshModel(
        config=config,
        parser=parse.parser,
        phase1=phase1,
        phase2=phase2,
        predictor=predictor,
        classifier=result.value("classifier"),
    )


# ----------------------------------------------------------------------
# inference-side parse caching
# ----------------------------------------------------------------------
def cached_transform(
    parser: LogParser,
    records: Sequence[LogRecord],
    store: Optional[ArtifactStore],
    *,
    stage: str = "encode",
    data_fingerprint: str | None = None,
) -> ParseResult:
    """Encode *records* with a fitted parser, caching the encoded stream.

    The cache key combines the parser's vocabulary with the record
    fingerprint, so the artifact is reused only when both the model's
    phrase inventory and the raw log are unchanged.  With ``store=None``
    this is exactly ``parser.transform(records)``.
    """
    if store is None:
        return parser.transform(records)
    if data_fingerprint is None:
        data_fingerprint = fingerprint_records(records)
    fingerprint = fingerprint_payload(
        {
            "stage": stage,
            "vocab": parser.vocab.to_dict(),
            "data": data_fingerprint,
        }
    )
    if store.has(stage, fingerprint):
        # A corrupt cached artifact is a cache miss, not a crash: the
        # store wraps any payload-read failure in ArtifactError, and we
        # fall through to re-encode.  Anything else (a bug, not a bad
        # cache entry) propagates as its typed repro.errors exception.
        try:
            return store.load(stage, fingerprint, _read_parse_result)
        except ArtifactError:
            pass  # corrupt artifact: re-encode below
    parsed = parser.transform(records)

    def _write(directory: Path) -> None:
        save_events(directory / "events.npz", parsed.events)
        write_json(directory / "parse.json", {"skipped": parsed.skipped})

    store.save(stage, fingerprint, _write)
    return parsed


def _read_parse_result(directory: Path) -> ParseResult:
    events = load_events(directory / "events.npz")
    skipped = int(read_json(directory / "parse.json")["skipped"])
    return ParseResult(events=events, skipped=skipped)
