"""Tests for skip-gram embeddings with negative sampling."""

import numpy as np
import pytest

from repro.config import EmbeddingConfig
from repro.errors import NotFittedError, ShapeError, TrainingError
from repro.nn.embeddings import SkipGramEmbedder


@pytest.fixture(scope="module")
def trained_embedder():
    """Embeddings over sequences with a strong co-occurrence structure.

    Phrases {0,1,2} always appear together, as do {3,4,5}; the two groups
    never mix.
    """
    rng = np.random.default_rng(0)
    seqs = []
    for _ in range(60):
        group = rng.integers(0, 2)
        base = 0 if group == 0 else 3
        seqs.append(base + rng.integers(0, 3, size=30))
    cfg = EmbeddingConfig(dim=16, epochs=4, window_left=3, window_right=2)
    emb = SkipGramEmbedder(6, cfg)
    emb.fit(seqs, np.random.default_rng(1))
    return emb


class TestBuildPairs:
    def test_window_asymmetry(self):
        cfg = EmbeddingConfig(window_left=2, window_right=1)
        emb = SkipGramEmbedder(10, cfg)
        centers, contexts = emb.build_pairs([np.array([0, 1, 2, 3])])
        pairs = set(zip(centers.tolist(), contexts.tolist()))
        # Left window 2: (2,0) is a pair; right window 1: (2,3) is a pair,
        # but (0,2) (distance-2 right context) must not be.
        assert (2, 0) in pairs
        assert (2, 3) in pairs
        assert (0, 2) not in pairs

    def test_empty_for_trivial_sequences(self):
        emb = SkipGramEmbedder(10)
        centers, contexts = emb.build_pairs([np.array([5])])
        assert len(centers) == 0

    def test_rejects_out_of_range_ids(self):
        emb = SkipGramEmbedder(4)
        with pytest.raises(ShapeError):
            emb.build_pairs([np.array([0, 9])])

    def test_rejects_2d_sequence(self):
        emb = SkipGramEmbedder(4)
        with pytest.raises(ShapeError):
            emb.build_pairs([np.ones((2, 2), dtype=int)])


class TestTraining:
    def test_vectors_shape(self, trained_embedder):
        assert trained_embedder.vectors.shape == (6, 16)

    def test_cooccurring_phrases_are_closer(self, trained_embedder):
        """Semantic closeness (Section 2): in-group similarity must beat
        cross-group similarity."""
        emb = trained_embedder
        within = np.mean(
            [emb.similarity(0, 1), emb.similarity(1, 2), emb.similarity(3, 4)]
        )
        across = np.mean(
            [emb.similarity(0, 3), emb.similarity(1, 4), emb.similarity(2, 5)]
        )
        assert within > across + 0.2

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            SkipGramEmbedder(4).vectors

    def test_fit_on_short_sequences_raises(self):
        emb = SkipGramEmbedder(4)
        with pytest.raises(TrainingError):
            emb.fit([np.array([1])], np.random.default_rng(0))

    def test_rejects_small_vocab(self):
        with pytest.raises(ShapeError):
            SkipGramEmbedder(1)

    def test_rejects_bad_counts_shape(self):
        emb = SkipGramEmbedder(4)
        with pytest.raises(ShapeError):
            emb.fit(
                [np.array([0, 1, 2, 3])],
                np.random.default_rng(0),
                counts=np.ones(5),
            )

    def test_deterministic_per_seed(self):
        seqs = [np.array([0, 1, 2, 3, 0, 1, 2, 3])]
        cfg = EmbeddingConfig(dim=4, epochs=1)
        a = SkipGramEmbedder(4, cfg).fit(seqs, np.random.default_rng(5)).vectors
        b = SkipGramEmbedder(4, cfg).fit(seqs, np.random.default_rng(5)).vectors
        assert np.allclose(a, b)

    def test_similarity_bounds(self, trained_embedder):
        for a in range(6):
            for b in range(6):
                s = trained_embedder.similarity(a, b)
                assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9

    def test_self_similarity_is_one(self, trained_embedder):
        assert trained_embedder.similarity(2, 2) == pytest.approx(1.0)
