"""Phase 1: train to recognize chains of log events leading to a failure.

Pipeline (Section 3.1, Figure 3a):

1. per-node phrase-id sequences are built from the parsed training events
   (node logs concatenated, i.e. windowed per node and pooled);
2. skip-gram word embeddings vectorize the encoded phrases (8-left /
   3-right context windows);
3. a 2-hidden-layer stacked LSTM trains with SGD + categorical
   cross-entropy to perform 3-step next-phrase prediction over history
   windows of size 8;
4. phrases are labeled Safe / Unknown / Error; Safe phrases are dropped
   and failure chains are formed around the known terminal messages
   (:class:`~repro.core.chains.ChainExtractor`, run by the pipeline's
   ``chains`` stage).

The phase's artifacts — embeddings, the sequence classifier, and the
extracted failure chains — feed phase 2.  Each is one stage of
:mod:`repro.pipeline.stages`; this module holds the two fits those
stages call and :func:`node_sequences`, their shared input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from ..config import EmbeddingConfig, Phase1Config
from ..errors import TrainingError
from ..events import EventSequence
from ..nn.data import windows_from_sequences
from ..nn.embeddings import SkipGramEmbedder
from ..nn.model import SequenceClassifier
from ..nn.optimizers import SGD
from ..parsing.pipeline import LogParser, ParseResult
from .chains import FailureChain

__all__ = ["Phase1Trainer", "Phase1Result", "node_sequences"]


def node_sequences(parsed: ParseResult) -> list[EventSequence]:
    """Node-attributed event sequences of *parsed*, validated."""
    if len(parsed) == 0:
        raise TrainingError("phase 1 received no parsed events")
    sequences = [
        seq for seq in parsed.by_node().values() if seq.node is not None
    ]
    if not sequences:
        raise TrainingError("phase 1 needs node-attributed events")
    return sequences


@dataclass
class Phase1Result:
    """Artifacts emitted by phase-1 training."""

    embedder: SkipGramEmbedder
    classifier: Optional[SequenceClassifier]
    chains: list[FailureChain]
    sequences: list[EventSequence]
    train_accuracy: float = 0.0
    losses: list[float] = field(default_factory=list)

    @property
    def num_chains(self) -> int:
        """Number of extracted failure chains."""
        return len(self.chains)


class Phase1Trainer:
    """The phase-1 fits: skip-gram embeddings and the phrase LSTM."""

    def __init__(
        self,
        parser: LogParser,
        *,
        config: Phase1Config | None = None,
        embedding_config: EmbeddingConfig | None = None,
        seed: int = 0,
        model: str = "lstm",
        model_params: Mapping[str, object] | None = None,
    ) -> None:
        self.parser = parser
        self.config = config if config is not None else Phase1Config()
        self.embedding_config = (
            embedding_config if embedding_config is not None else EmbeddingConfig()
        )
        self.seed = seed
        self.model = model
        self.model_params = dict(model_params or {})

    def train_embedder(
        self, sequences: Sequence[EventSequence]
    ) -> SkipGramEmbedder:
        """Fit the skip-gram embeddings over the per-node id sequences."""
        id_sequences = [seq.phrase_ids() for seq in sequences]
        vocab_size = max(2, self.parser.num_phrases)
        rng = np.random.default_rng(self.seed)
        embedder = SkipGramEmbedder(vocab_size, self.embedding_config)
        embedder.fit(id_sequences, rng, counts=self._padded_counts(vocab_size))
        return embedder

    def train_sequence_model(
        self,
        sequences: Sequence[EventSequence],
        embedder: SkipGramEmbedder,
        *,
        checkpoint=None,
    ) -> tuple[SequenceClassifier, float, list[float]]:
        """Fit the phrase-sequence LSTM on windows over *sequences*.

        Returns ``(classifier, train_accuracy, losses)``.
        """
        id_sequences = [seq.phrase_ids() for seq in sequences]
        vocab_size = max(2, self.parser.num_phrases)
        cfg = self.config
        x, y = windows_from_sequences(
            id_sequences, cfg.history_size, cfg.prediction_steps
        )
        if len(x) == 0:
            raise TrainingError(
                "no training windows; sequences shorter than "
                f"history ({cfg.history_size}) + steps ({cfg.prediction_steps})"
            )
        classifier = SequenceClassifier(
            vocab_size,
            embed_dim=self.embedding_config.dim,
            hidden_size=cfg.hidden_size,
            num_layers=cfg.hidden_layers,
            steps=cfg.prediction_steps,
            seed=self.seed,
            pretrained_embeddings=embedder.vectors,
            backbone=self.model,
            backbone_params=self.model_params,
        )
        losses = classifier.fit(
            x,
            y,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            optimizer=SGD(cfg.learning_rate, momentum=cfg.momentum),
            grad_clip=cfg.grad_clip,
            rng=np.random.default_rng(self.seed + 1),
            checkpoint=checkpoint,
        )
        accuracy = classifier.accuracy(x, y)
        return classifier, accuracy, losses

    # ------------------------------------------------------------------
    def _padded_counts(self, vocab_size: int) -> np.ndarray:
        counts = self.parser.vocab.counts()
        if len(counts) < vocab_size:
            counts = np.pad(counts, (0, vocab_size - len(counts)))
        return counts
