"""Concrete Desh stages: parse -> embeddings -> phase1 -> chains -> phase2
-> (classifier, phase3).

Each stage wraps exactly the code path :class:`~repro.core.desh.Desh`
used monolithically — the trainers are reused, seeds included — so a
pipeline run produces bit-identical artifacts to the pre-pipeline
``Desh.fit``, and any prefix of the DAG can be served from cache.

Dependency edges double as invalidation rules:

* ``parse`` is keyed by the input-data fingerprint only;
* ``embeddings``/``phase1`` hang off ``parse`` (+ their own configs);
* ``chains`` hangs off ``parse`` and the extractor window, which tracks
  ``phase2.max_lead_seconds``;
* ``phase2`` hangs off ``chains`` (+ the Phase-2 config), ``phase3``
  off ``phase2`` — so editing only the Phase-2 learning rate re-runs
  ``phase2`` and ``phase3`` while everything upstream cache-hits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..config import DeshConfig, Phase3Config
from ..core.chains import ChainExtractor, FailureChain
from ..core.classify import FailureClassifier
from ..core.phase1 import Phase1Trainer
from ..core.phase2 import Phase2Result, Phase2Trainer
from ..errors import TrainingError
from ..nn.embeddings import SkipGramEmbedder
from ..nn.model import SequenceClassifier
from ..parsing.encoder import PhraseVocabulary
from ..parsing.pipeline import LogParser, ParseResult
from . import serialize
from .stage import Stage, StageContext

__all__ = [
    "ParseArtifact",
    "SequenceModelArtifact",
    "Phase3Spec",
    "ParseStage",
    "EmbeddingStage",
    "Phase1Stage",
    "ChainStage",
    "Phase2Stage",
    "ClassifierStage",
    "Phase3Stage",
    "build_desh_stages",
]

#: Message kept verbatim from the monolithic ``Desh.fit``.
_NO_CHAINS_MSG = (
    "phase 1 extracted no failure chains from the training data; "
    "the training window may contain no failures"
)


@dataclass
class ParseArtifact:
    """Output of the ``parse`` stage: fitted parser + encoded events."""

    parser: LogParser
    parsed: ParseResult


@dataclass
class SequenceModelArtifact:
    """Output of the ``phase1`` stage: the phrase-sequence LSTM."""

    classifier: Optional[SequenceClassifier]
    train_accuracy: float
    losses: list[float]


@dataclass(frozen=True)
class Phase3Spec:
    """Output of the ``phase3`` stage: inference parameters.

    Phase 3 trains nothing — its artifact pins the scoring configuration
    so config edits show up as a distinct (cheap) cache invalidation.
    """

    config: Phase3Config
    episode_gap: float


def _trainer(ctx: StageContext, parser: LogParser) -> Phase1Trainer:
    cfg = ctx.config
    return Phase1Trainer(
        parser,
        config=cfg.phase1,
        embedding_config=cfg.embedding,
        seed=cfg.seed,
        model=cfg.model,
        model_params=cfg.model_params,
    )


class ParseStage(Stage):
    """Mine templates + vocabulary and encode the training records."""

    name = "parse"
    deps = ()
    consumes_source = True

    def config_payload(self) -> object:
        """Parser identity: bump when the mining algorithm changes."""
        return {"parser": "drain-default-v1"}

    def run(self, ctx: StageContext) -> ParseArtifact:
        """Fit the template miner + vocabulary and encode the records."""
        parser = LogParser()
        parsed = parser.fit_transform(list(ctx.records))
        return ParseArtifact(parser=parser, parsed=parsed)

    def save(self, value: ParseArtifact, directory: Path) -> None:
        """Persist vocabulary, encoded events and skip count."""
        value.parser.vocab.save(directory / "vocab.json")
        serialize.save_events(directory / "events.npz", value.parsed.events)
        serialize.write_json(
            directory / "parse.json", {"skipped": value.parsed.skipped}
        )

    def load(self, directory: Path, ctx: StageContext) -> ParseArtifact:
        """Rebuild the parser from its vocabulary + the event stream."""
        vocab = PhraseVocabulary.load(directory / "vocab.json")
        parser = LogParser.from_vocabulary(vocab)
        events = serialize.load_events(directory / "events.npz")
        skipped = int(serialize.read_json(directory / "parse.json")["skipped"])
        return ParseArtifact(
            parser=parser, parsed=ParseResult(events=events, skipped=skipped)
        )


class EmbeddingStage(Stage):
    """Fit the skip-gram phrase embeddings over per-node sequences."""

    name = "embeddings"
    deps = ("parse",)

    def __init__(self, config: DeshConfig) -> None:
        self.config = config

    def config_payload(self) -> object:
        """Embedding hyperparameters + the config seed."""
        return {
            "embedding": dataclasses.asdict(self.config.embedding),
            "seed": self.config.seed,
        }

    def run(self, ctx: StageContext) -> SkipGramEmbedder:
        """Train the skip-gram embedder (same seed as ``Desh.fit``)."""
        art: ParseArtifact = ctx.value("parse")
        trainer = _trainer(ctx, art.parser)
        return trainer.train_embedder(trainer.node_sequences(art.parsed))

    def save(self, value: SkipGramEmbedder, directory: Path) -> None:
        """Persist the embedding matrices."""
        serialize.save_embedder(directory / "embedder.npz", value)

    def load(self, directory: Path, ctx: StageContext) -> SkipGramEmbedder:
        """Restore the embedder from its matrices."""
        return serialize.load_embedder(directory / "embedder.npz", ctx.config)


class Phase1Stage(Stage):
    """Train the phase-1 phrase-sequence LSTM (optional)."""

    name = "phase1"
    deps = ("parse", "embeddings")

    def __init__(self, config: DeshConfig, *, enabled: bool = True) -> None:
        self.config = config
        self.enabled = enabled

    def config_payload(self) -> object:
        """Phase-1 hyperparameters, model identity, seed, enabled flag."""
        return {
            "phase1": dataclasses.asdict(self.config.phase1),
            "model": self.config.model,
            "model_params": dict(self.config.model_params),
            "seed": self.config.seed,
            "enabled": self.enabled,
        }

    def run(self, ctx: StageContext) -> SequenceModelArtifact:
        """Train the phrase LSTM (or return an empty artifact)."""
        if not self.enabled:
            return SequenceModelArtifact(
                classifier=None, train_accuracy=0.0, losses=[]
            )
        art: ParseArtifact = ctx.value("parse")
        trainer = _trainer(ctx, art.parser)
        classifier, accuracy, losses = trainer.train_sequence_model(
            trainer.node_sequences(art.parsed),
            ctx.value("embeddings"),
            checkpoint=ctx.checkpoint_for(self.name),
        )
        return SequenceModelArtifact(
            classifier=classifier, train_accuracy=accuracy, losses=losses
        )

    def save(self, value: SequenceModelArtifact, directory: Path) -> None:
        """Persist the classifier weights + training metadata."""
        if value.classifier is not None:
            value.classifier.save(directory / "classifier.npz")
        serialize.write_json(
            directory / "phase1.json",
            {
                "has_classifier": value.classifier is not None,
                "train_accuracy": value.train_accuracy,
                "losses": [float(v) for v in value.losses],
            },
        )

    def load(self, directory: Path, ctx: StageContext) -> SequenceModelArtifact:
        """Restore the classifier and its training metadata."""
        meta = serialize.read_json(directory / "phase1.json")
        classifier = None
        if meta["has_classifier"]:
            classifier = SequenceClassifier.load(directory / "classifier.npz")
        return SequenceModelArtifact(
            classifier=classifier,
            train_accuracy=float(meta["train_accuracy"]),
            losses=[float(v) for v in meta["losses"]],
        )


class ChainStage(Stage):
    """Extract the failure chains from the parsed per-node streams."""

    name = "chains"
    deps = ("parse",)

    def __init__(self, config: DeshConfig) -> None:
        self.config = config
        self.extractor = ChainExtractor(
            lookback=config.phase2.max_lead_seconds
        )

    def config_payload(self) -> object:
        """The extractor parameters (lookback tracks phase-2)."""
        return dataclasses.asdict(self.extractor)

    def run(self, ctx: StageContext) -> list[FailureChain]:
        """Extract failure chains; fail fast when there are none."""
        art: ParseArtifact = ctx.value("parse")
        trainer = _trainer(ctx, art.parser)
        chains = self.extractor.extract(trainer.node_sequences(art.parsed))
        if not chains:
            raise TrainingError(_NO_CHAINS_MSG)
        return chains

    def save(self, value: list[FailureChain], directory: Path) -> None:
        """Persist the chains in columnar form."""
        serialize.save_chains(directory / "chains.npz", value)

    def load(self, directory: Path, ctx: StageContext) -> list[FailureChain]:
        """Restore the extracted chains."""
        return serialize.load_chains(directory / "chains.npz")


class Phase2Stage(Stage):
    """Train the (dT, phrase) lead-time regressor on the chains."""

    name = "phase2"
    deps = ("parse", "chains")

    def __init__(self, config: DeshConfig) -> None:
        self.config = config

    def config_payload(self) -> object:
        """Phase-2 hyperparameters, model identity + the config seed."""
        return {
            "phase2": dataclasses.asdict(self.config.phase2),
            "model": self.config.model,
            "model_params": dict(self.config.model_params),
            "seed": self.config.seed,
        }

    def run(self, ctx: StageContext) -> Phase2Result:
        """Train the lead-time regressor on the extracted chains."""
        art: ParseArtifact = ctx.value("parse")
        return Phase2Trainer(
            vocab_size=max(2, art.parser.num_phrases),
            config=self.config.phase2,
            seed=self.config.seed,
            model=self.config.model,
            model_params=self.config.model_params,
        ).train(ctx.value("chains"), checkpoint=ctx.checkpoint_for(self.name))

    def save(self, value: Phase2Result, directory: Path) -> None:
        """Persist the regressor, scaler and loss history."""
        serialize.save_phase2(directory, value)

    def load(self, directory: Path, ctx: StageContext) -> Phase2Result:
        """Restore the full phase-2 result."""
        return serialize.load_phase2(directory)


class ClassifierStage(Stage):
    """Bootstrap the Table-7 failure-class attribution profiles."""

    name = "classifier"
    deps = ("parse", "chains")

    def __init__(self, config: DeshConfig) -> None:
        self.config = config

    def config_payload(self) -> object:
        """Keyword-rule identity + the active model family.

        The class profiles themselves are model-free, but they ship
        inside one model directory: keying them on the model identity
        keeps every per-model artifact set self-consistent (switching
        ``--model`` invalidates exactly phase1/phase2/classifier/phase3,
        never a stale mix from two families).
        """
        return {
            "rules": "table7-keywords-v1",
            "model": self.config.model,
            "model_params": dict(self.config.model_params),
        }

    def run(self, ctx: StageContext) -> Optional[FailureClassifier]:
        """Fit the keyword-bootstrapped class profiles (or ``None``)."""
        art: ParseArtifact = ctx.value("parse")
        parser = art.parser
        vocab_texts = [
            parser.vocab.text_of(i) for i in range(parser.num_phrases)
        ]
        try:
            return FailureClassifier(
                max(2, parser.num_phrases)
            ).fit_with_keywords(ctx.value("chains"), vocab_texts)
        except TrainingError:
            return None  # no chain matched any keyword rule

    def save(self, value: Optional[FailureClassifier], directory: Path) -> None:
        """Persist the class profiles (or an absence marker)."""
        serialize.save_failure_classifier(directory / "classifier.npz", value)

    def load(
        self, directory: Path, ctx: StageContext
    ) -> Optional[FailureClassifier]:
        """Restore the class profiles (or ``None``)."""
        return serialize.load_failure_classifier(directory / "classifier.npz")


class Phase3Stage(Stage):
    """Pin the phase-3 scoring parameters (no training)."""

    name = "phase3"
    deps = ("phase2",)  # fingerprint edge only: scoring tracks the regressor

    def __init__(self, config: DeshConfig) -> None:
        self.config = config

    def config_payload(self) -> object:
        """Phase-3 scoring parameters + the episode gap."""
        return {
            "phase3": dataclasses.asdict(self.config.phase3),
            "episode_gap": self.config.phase2.max_lead_seconds,
        }

    def run(self, ctx: StageContext) -> Phase3Spec:
        """Pin the scoring parameters as the stage artifact."""
        return Phase3Spec(
            config=self.config.phase3,
            episode_gap=self.config.phase2.max_lead_seconds,
        )

    def save(self, value: Phase3Spec, directory: Path) -> None:
        """Persist the scoring parameters as JSON."""
        serialize.write_json(
            directory / "phase3.json",
            {
                "phase3": dataclasses.asdict(value.config),
                "episode_gap": value.episode_gap,
            },
        )

    def load(self, directory: Path, ctx: StageContext) -> Phase3Spec:
        """Restore the scoring parameters."""
        meta = serialize.read_json(directory / "phase3.json")
        return Phase3Spec(
            config=Phase3Config(**meta["phase3"]),
            episode_gap=float(meta["episode_gap"]),
        )


def build_desh_stages(
    config: DeshConfig, *, train_classifier: bool = True
) -> list[Stage]:
    """The full Desh stage DAG in topological order."""
    return [
        ParseStage(),
        EmbeddingStage(config),
        Phase1Stage(config, enabled=train_classifier),
        ChainStage(config),
        Phase2Stage(config),
        ClassifierStage(config),
        Phase3Stage(config),
    ]
