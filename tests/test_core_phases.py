"""Tests for phase-1, phase-2 and phase-3 trainers on controlled data."""

import numpy as np
import pytest

from repro.config import (
    DeshConfig,
    EmbeddingConfig,
    Phase1Config,
    Phase2Config,
    Phase3Config,
)
from repro.core.chains import ChainExtractor, Episode, FailureChain
from repro.core.deltas import LeadTimeScaler
from repro.core.phase1 import Phase1Trainer, node_sequences
from repro.core.phase2 import Phase2Result, Phase2Trainer, pad_vectors
from repro.core.phase3 import Phase3Predictor
from repro.errors import TrainingError
from repro.events import Label, ParsedEvent
from repro.parsing import LogParser
from repro.parsing.pipeline import ParseResult
from repro.pipeline.stage import StageContext
from repro.pipeline.stages import ChainStage, ParseArtifact, Phase1Stage
from repro.topology import CrayNodeId

NODE = CrayNodeId(0, 0, 0, 0, 0)


def make_chain(node, terminal_time, ids=(1, 2, 3, 9), lead=100.0):
    """A synthetic failure chain with evenly spread events."""
    n = len(ids)
    events = []
    for i, pid in enumerate(ids):
        t = terminal_time - lead * (1 - i / (n - 1))
        is_last = i == n - 1
        events.append(
            ParsedEvent(
                timestamp=t,
                phrase_id=pid,
                node=node,
                label=Label.ERROR if is_last else Label.UNKNOWN,
                terminal=is_last,
            )
        )
    return FailureChain(node, tuple(events))


@pytest.fixture(scope="module")
def many_chains():
    """30 instances of one chain shape with varying leads and times."""
    rng = np.random.default_rng(0)
    chains = []
    for k in range(30):
        lead = float(rng.normal(100.0, 10.0))
        chains.append(make_chain(NODE, 1000.0 * (k + 1), lead=max(lead, 40.0)))
    return chains


@pytest.fixture(scope="module")
def phase2_result(many_chains) -> Phase2Result:
    trainer = Phase2Trainer(
        vocab_size=12,
        config=Phase2Config(epochs=150, learning_rate=0.01, hidden_size=32),
        seed=3,
    )
    return trainer.train(many_chains)


class TestPadVectors:
    def test_no_padding_needed(self):
        v = np.ones((5, 2))
        assert pad_vectors(v, 5) is v

    def test_pads_with_first_row(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        padded = pad_vectors(v, 4)
        assert padded.shape == (4, 2)
        assert np.array_equal(padded[0], [1.0, 2.0])
        assert np.array_equal(padded[1], [1.0, 2.0])
        assert np.array_equal(padded[2:], v)

    def test_rejects_1d(self):
        with pytest.raises(TrainingError):
            pad_vectors(np.ones(3), 5)


class TestPhase2Trainer:
    def test_rejects_empty_chains(self):
        with pytest.raises(TrainingError):
            Phase2Trainer(vocab_size=12).train([])

    def test_window_count_with_padding(self, many_chains):
        trainer = Phase2Trainer(
            vocab_size=12, config=Phase2Config(augment_copies=0)
        )
        x, y = trainer.build_windows(many_chains[:1])
        # One window per real event (left-padded by history).
        assert len(x) == len(many_chains[0])

    def test_augmentation_multiplies_windows(self, many_chains):
        clean = Phase2Trainer(vocab_size=12, config=Phase2Config(augment_copies=0))
        aug = Phase2Trainer(vocab_size=12, config=Phase2Config(augment_copies=2))
        x0, _ = clean.build_windows(many_chains[:3])
        x2, _ = aug.build_windows(many_chains[:3])
        assert len(x2) == 3 * len(x0)

    def test_training_reduces_loss(self, phase2_result):
        assert phase2_result.losses[-1] < phase2_result.losses[0] / 5

    def test_result_counts(self, phase2_result, many_chains):
        assert phase2_result.num_chains == len(many_chains)
        assert phase2_result.num_windows > 0

    def test_learns_chain_structure(self, phase2_result, many_chains):
        """Predicting within a training chain yields low paper-unit MSE."""
        trainer = Phase2Trainer(
            vocab_size=12, config=Phase2Config(augment_copies=0), seed=3
        )
        x, y = trainer.build_windows(many_chains[:5])
        pred = phase2_result.regressor.predict(x)
        mses = phase2_result.scaler.mse_paper_units(pred, y)
        assert np.median(mses) < 1.0


class TestPhase3Predictor:
    @pytest.fixture(scope="class")
    def predictor(self, phase2_result):
        return Phase3Predictor(
            phase2_result.regressor,
            phase2_result.scaler,
            config=Phase3Config(mse_threshold=2.0),
            episode_gap=600.0,
        )

    def chain_episode(self, lead=100.0, ids=(1, 2, 3, 9)):
        chain = make_chain(NODE, 5000.0, ids=ids, lead=lead)
        return Episode(NODE, chain.events)

    def test_true_chain_flagged(self, predictor):
        verdict = predictor.score_episode(self.chain_episode())
        assert verdict.flagged
        assert verdict.lead_seconds > 0

    def test_flag_reports_node(self, predictor):
        verdict = predictor.score_episode(self.chain_episode())
        assert verdict.node == NODE

    def test_garbage_not_flagged(self, predictor):
        """A sequence unlike any trained chain must not be flagged.

        (With a single trained chain shape, a lone window can land close
        by chance; the confirmation rule requires a *second* match, which
        garbage lacks.)
        """
        ids = (6, 10, 6, 10, 6)
        events = tuple(
            ParsedEvent(timestamp=5000.0 + 150.0 * i, phrase_id=ids[i], node=NODE)
            for i in range(5)
        )
        verdict = predictor.score_episode(Episode(NODE, events))
        assert not verdict.flagged

    def test_short_episode_skipped(self, predictor):
        ep = Episode(
            NODE, (ParsedEvent(timestamp=1.0, phrase_id=1, node=NODE),)
        )
        verdict = predictor.score_episode(ep)
        assert not verdict.flagged
        assert verdict.mse == float("inf")

    def test_leading_contamination_tolerated(self, predictor):
        """An unrelated leading event must not mask the chain (suffix skip)."""
        chain = make_chain(NODE, 5000.0, lead=100.0)
        noise = ParsedEvent(timestamp=4850.0, phrase_id=7, node=NODE)
        ep = Episode(NODE, (noise, *chain.events))
        assert predictor.score_episode(ep).flagged

    def test_later_flag_position_shortens_lead(self, phase2_result):
        ep = self.chain_episode()
        leads = []
        for fpos in (0, 2):
            pred = Phase3Predictor(
                phase2_result.regressor,
                phase2_result.scaler,
                config=Phase3Config(mse_threshold=2.0, flag_position=fpos),
            )
            verdict = pred.score_episode(ep)
            if verdict.flagged:
                leads.append(verdict.lead_seconds)
        assert len(leads) == 2
        assert leads[0] >= leads[1]

    def test_predict_sequences_and_predictions(self, predictor, phase2_result):
        from repro.events import EventSequence

        chain = make_chain(NODE, 5000.0, lead=100.0)
        seq = EventSequence(NODE, chain.events)
        verdicts = predictor.predict_sequences([seq])
        assert len(verdicts) == 1
        preds = predictor.predictions(verdicts)
        assert len(preds) == 1
        assert preds[0].node == NODE

    def test_score_partial_on_prefix(self, predictor):
        """Online scoring of a growing chain prefix matches eventually."""
        chain = make_chain(NODE, 5000.0, lead=100.0)
        (score,) = predictor.score_partial_batch([chain.events[:3]])
        assert np.isfinite(score.mse)
        assert score.lead_seconds >= 0.0

    def test_score_partial_too_short(self, predictor):
        chain = make_chain(NODE, 5000.0)
        (score,) = predictor.score_partial_batch([chain.events[:1]])
        assert not score.flagged
        assert score.mse == float("inf")
        assert score.lead_seconds == 0.0


class TestPhase1Trainer:
    """Phase 1 as the pipeline stages run it: the two fits and the chains."""

    CONFIG = DeshConfig(
        embedding=EmbeddingConfig(dim=8, epochs=1),
        phase1=Phase1Config(hidden_size=16, epochs=1, batch_size=128),
        seed=0,
    )

    @pytest.fixture(scope="class")
    def parsed_small(self, small_log):
        parser = LogParser()
        parsed = parser.fit_transform(list(small_log.records))
        return parser, parsed

    @pytest.fixture(scope="class")
    def chains(self, parsed_small):
        ctx = StageContext(
            config=self.CONFIG, inputs={"parse": ParseArtifact(*parsed_small)}
        )
        return ChainStage(self.CONFIG).run(ctx)

    def test_trains_and_extracts_chains(self, parsed_small, chains):
        parser, parsed = parsed_small
        trainer = Phase1Trainer(
            parser,
            config=self.CONFIG.phase1,
            embedding_config=self.CONFIG.embedding,
            seed=0,
        )
        sequences = node_sequences(parsed)
        embedder = trainer.train_embedder(sequences)
        classifier, _, losses = trainer.train_sequence_model(
            sequences, embedder
        )
        assert chains, "must extract failure chains"
        assert embedder.vectors.shape == (parser.num_phrases, 8)
        assert classifier.vocab_size == parser.num_phrases
        assert classifier.embed_dim == 8
        assert classifier.hidden_size == 16
        assert len(losses) == 1

    def test_skip_classifier(self):
        artifact = Phase1Stage(self.CONFIG, enabled=False).run(
            StageContext(config=self.CONFIG)
        )
        assert artifact.classifier is None
        assert artifact.losses == []

    def test_chains_have_no_safe_events(self, chains):
        assert chains
        for chain in chains:
            assert all(e.label != Label.SAFE for e in chain.events)

    def test_empty_input_raises(self):
        with pytest.raises(TrainingError):
            node_sequences(ParseResult(events=[]))
