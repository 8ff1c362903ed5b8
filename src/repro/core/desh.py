"""The Desh facade: fit on raw training logs, predict node failures.

Ties the full pipeline together (Figure 2)::

    raw lines -> LogParser -> Phase1 (embeddings + phrase LSTM + chains)
              -> Phase2 ((dT, phrase) regressor)
              -> Phase3 (per-node episode scoring) -> FailureWarnings

Typical use::

    from repro import Desh, DeshConfig
    desh = Desh(DeshConfig())
    model = desh.fit(train_records)
    warnings = model.warn(test_records)
    for w in warnings:
        print(w.message())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..config import DeshConfig
from ..errors import NotFittedError, TrainingError
from ..parsing.pipeline import LogParser, ParseResult
from ..simlog.record import LogRecord
from .alerts import FailureWarning
from .chains import ChainExtractor
from .classify import FailureClassifier
from .phase1 import Phase1Result
from .phase2 import Phase2Result, Phase2Trainer  # noqa: F401 (update() uses both)
from .phase3 import EpisodeVerdict, FailurePrediction, Phase3Predictor

__all__ = ["Desh", "DeshModel"]


@dataclass
class DeshModel:
    """A fully trained Desh pipeline, ready for inference."""

    config: DeshConfig
    parser: LogParser
    phase1: Phase1Result
    phase2: Phase2Result
    predictor: Phase3Predictor
    classifier: "FailureClassifier | None" = None

    # ------------------------------------------------------------------
    def parse(self, records: Iterable[LogRecord]) -> ParseResult:
        """Encode raw test records with the trained parser."""
        return self.parser.transform(records)

    def score(self, records: Iterable[LogRecord]) -> list[EpisodeVerdict]:
        """Segment and score every per-node episode in *records*."""
        parsed = self.parse(records)
        sequences = [
            seq for seq in parsed.by_node().values() if seq.node is not None
        ]
        return self.score_sequences(sequences)

    def score_sequences(self, sequences: Sequence) -> list[EpisodeVerdict]:
        """Score already-encoded per-node sequences (cache-friendly path).

        Callers that hold a pre-parsed event stream — e.g. an evaluation
        sweep reusing a cached ``ParseResult`` — can skip re-parsing and
        feed its ``by_node()`` sequences here directly.
        """
        return self.predictor.predict_sequences(sequences)

    def predict(self, records: Iterable[LogRecord]) -> list[FailurePrediction]:
        """The raised failure flags for *records*."""
        return self.predictor.predictions(self.score(records))

    def warn(self, records: Iterable[LogRecord]) -> list[FailureWarning]:
        """Operator-facing warnings, one per raised flag.

        When the model carries a failure classifier, every warning also
        names the likely Table-7 failure class ("likely MCE").
        """
        warnings: list[FailureWarning] = []
        for verdict in self.score(records):
            if not verdict.flagged:
                continue
            likely = None
            if self.classifier is not None:
                likely = self.classifier.classify(verdict.episode).value
            warnings.append(
                FailureWarning(
                    node=verdict.node,
                    decision_time=verdict.decision_time,
                    lead_seconds=verdict.lead_seconds,
                    mse=verdict.mse,
                    likely_class=likely,
                )
            )
        return warnings

    # ------------------------------------------------------------------
    def update(
        self, records: Sequence[LogRecord], *, epochs: int = 60
    ) -> int:
        """Incrementally learn from newly observed records (extension).

        Table 11 notes DeepLog performs online model updates while the
        published Desh does not; this closes the gap: failure chains are
        extracted from the new records with the *existing* vocabulary,
        appended to the chain store, and the phase-2 regressor continues
        training on the combined window set for a few epochs (RMSprop
        state is fresh, weights are warm).

        Returns the number of newly learned chains (0 leaves the model
        untouched).
        """
        from ..nn.optimizers import RMSprop
        import numpy as np

        parsed = self.parser.transform(records)
        sequences = [
            seq for seq in parsed.by_node().values() if seq.node is not None
        ]
        extractor = ChainExtractor(lookback=self.config.phase2.max_lead_seconds)
        new_chains = extractor.extract(sequences)
        if not new_chains:
            return 0
        self.phase1.chains.extend(new_chains)
        trainer = Phase2Trainer(
            vocab_size=self.phase2.scaler.vocab_size,
            config=self.config.phase2,
            seed=self.config.seed,
            model=self.config.model,
            model_params=self.config.model_params,
        )
        x, y = trainer.build_windows(self.phase1.chains)
        cfg = self.config.phase2
        self.phase2.regressor.fit(
            x,
            y,
            epochs=epochs,
            batch_size=cfg.batch_size,
            optimizer=RMSprop(cfg.learning_rate, rho=cfg.rho),
            grad_clip=cfg.grad_clip,
            rng=np.random.default_rng(self.config.seed + 11),
        )
        self.phase2.num_chains = len(self.phase1.chains)
        self.phase2.num_windows = len(x)
        return len(new_chains)

    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Persist the complete model (every trained component).

        Unlike the legacy ``cli.save_model`` — which kept only the
        phase-2 regressor and vocabulary — a directory written here
        restores via :meth:`load` to a model whose ``warn()`` output is
        identical, classifier and online ``update()`` included.
        """
        from ..pipeline.persist import save_model

        save_model(self, directory)

    @classmethod
    def load(cls, directory) -> "DeshModel":
        """Restore a complete model saved by :meth:`save`."""
        from ..pipeline.persist import load_model

        return load_model(directory)

    # ------------------------------------------------------------------
    @property
    def num_phrases(self) -> int:
        """Size of the mined phrase vocabulary."""
        return self.parser.num_phrases

    @property
    def num_chains(self) -> int:
        """Number of failure chains the model has learned."""
        return self.phase1.num_chains


class Desh:
    """Trainer entry point configuring all three phases."""

    def __init__(self, config: DeshConfig | None = None) -> None:
        self.config = config if config is not None else DeshConfig()

    def fit(
        self,
        records: Sequence[LogRecord],
        *,
        train_classifier: bool = True,
        checkpoint_dir: "str | None" = None,
        cache_dir: "str | None" = None,
    ) -> DeshModel:
        """Train the full pipeline on raw training records.

        Training runs through the staged pipeline
        (:class:`repro.pipeline.DeshPipeline`): parse → embeddings /
        chains → phase-1 LSTM / phase-2 regressor → classifier /
        phase-3 spec.  Each stage reuses exactly the trainer code (and
        seeds) of the original monolithic implementation, so the
        returned model is bit-identical to the pre-pipeline ``fit``.

        ``train_classifier=False`` skips the phase-1 LSTM (embeddings and
        chains are still built); useful when only lead-time prediction is
        being evaluated.

        ``checkpoint_dir`` enables crash-safe training: both LSTM fits
        write atomic per-epoch checkpoints under ``<dir>/phase1`` and
        ``<dir>/phase2``, and a re-run of the same ``fit`` call resumes
        from the newest intact checkpoint to bit-identical weights (the
        parser, embeddings and chain extraction are deterministic given
        the config seed, so they are simply recomputed).

        ``cache_dir`` enables the content-addressed artifact store:
        stage outputs are persisted under fingerprints derived from the
        config, the upstream stages and the training data, and a
        re-``fit`` with a partially changed config re-runs only the
        invalidated stages (e.g. a Phase-2 edit skips parsing, the
        embeddings and the phase-1 LSTM entirely).
        """
        if not records:
            raise TrainingError("Desh.fit received no records")
        from ..pipeline.facade import DeshPipeline

        return DeshPipeline(
            self.config,
            train_classifier=train_classifier,
            cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir,
        ).fit(records)
