"""Section-2/3.1 claim: semantically related phrases cluster in vector space.

"In RNNs semantically similar words can be close together in the vector
space" (Section 2); the skip-gram embeddings build that structure from
the 8-left/3-right context windows.  Phrases of one failure-chain
template systematically co-occur, so their vectors should be closer to
each other than to phrases from unrelated chains.
"""

import itertools

import numpy as np
import pytest

from repro.core.classify import classify_by_keywords
from repro.simlog.faults import FailureClass


@pytest.fixture(scope="module")
def chain_groups(trained_model):
    """Phrase-id groups per failure class, from the extracted chains."""
    vocab = trained_model.parser.vocab
    groups: dict[FailureClass, set[int]] = {}
    for chain in trained_model.phase1.chains:
        phrases = [vocab.text_of(int(i)) for i in chain.phrase_ids()]
        cls = classify_by_keywords(phrases)
        if cls is None:
            continue
        # Exclude the shared terminal phrase (it co-occurs with everything).
        groups.setdefault(cls, set()).update(
            int(i) for i, e in zip(chain.phrase_ids(), chain.events) if not e.terminal
        )
    return {c: ids for c, ids in groups.items() if len(ids) >= 3}


def mean_similarity(embedder, pairs):
    values = [embedder.similarity(a, b) for a, b in pairs]
    return float(np.mean(values)) if values else 0.0


class TestEmbeddingSemantics:
    def test_within_class_beats_across_class(self, trained_model, chain_groups):
        """Avg similarity within a failure class's phrases exceeds the
        avg similarity across unrelated classes."""
        assert len(chain_groups) >= 2, "need at least two populated classes"
        embedder = trained_model.phase1.embedder
        within_pairs = []
        for ids in chain_groups.values():
            within_pairs.extend(itertools.combinations(sorted(ids), 2))
        across_pairs = []
        classes = list(chain_groups)
        for ca, cb in itertools.combinations(classes, 2):
            only_a = chain_groups[ca] - chain_groups[cb]
            only_b = chain_groups[cb] - chain_groups[ca]
            across_pairs.extend(itertools.product(sorted(only_a), sorted(only_b)))
        within = mean_similarity(embedder, within_pairs)
        across = mean_similarity(embedder, across_pairs)
        assert within > across, (
            f"within-class similarity {within:.3f} must exceed "
            f"across-class {across:.3f}"
        )
