"""Tests for failure-class attribution."""

import pytest

from repro.core.chains import Episode, FailureChain
from repro.core.classify import (
    FailureClassifier,
    classify_by_keywords,
    keyword_class_rules,
)
from repro.errors import NotFittedError, TrainingError
from repro.events import Label, ParsedEvent
from repro.simlog.faults import FailureClass
from repro.topology import CrayNodeId

NODE = CrayNodeId(0, 0, 0, 0, 0)


def chain_of(ids):
    events = []
    for i, pid in enumerate(ids):
        last = i == len(ids) - 1
        events.append(
            ParsedEvent(
                timestamp=float(i),
                phrase_id=pid,
                node=NODE,
                label=Label.ERROR if last else Label.UNKNOWN,
                terminal=last,
            )
        )
    return FailureChain(NODE, tuple(events))


class TestKeywordRules:
    def test_rules_cover_all_classes(self):
        assert set(keyword_class_rules()) == set(FailureClass)

    @pytest.mark.parametrize(
        "phrases,expected",
        [
            (["CPU 3: Machine Check Exception", "Kernel panic"], FailureClass.MCE),
            (["LustreError: operation failed", "DVS: Verify Filesystem"], FailureClass.FILESYSTEM),
            (["Slurm load partitions error", "Killed process 3"], FailureClass.JOB),
            (["aprun segfault at 0x3", "Trap invalid code"], FailureClass.TRAPS),
            (["Debug NMI detected", "node heartbeat fault"], FailureClass.HARDWARE),
            (["Kernel panic - not syncing", "Call Trace:", "Stack:"], FailureClass.PANIC),
        ],
    )
    def test_classifies_table7_examples(self, phrases, expected):
        assert classify_by_keywords(phrases) is expected

    def test_no_match_returns_none(self):
        assert classify_by_keywords(["nothing interesting here"]) is None

    def test_panic_downweighted(self):
        """A trap chain ending in a stack trace must stay Traps."""
        phrases = ["Trap invalid code 3", "segfault at 0x1", "Stack: 0x2"]
        assert classify_by_keywords(phrases) is FailureClass.TRAPS


class TestFailureClassifier:
    @pytest.fixture
    def fitted(self):
        chains = [chain_of([1, 2, 9]), chain_of([1, 2, 9]), chain_of([5, 6, 9])]
        labels = [FailureClass.MCE, FailureClass.MCE, FailureClass.PANIC]
        return FailureClassifier(12).fit(chains, labels)

    def test_classifies_training_pattern(self, fitted):
        assert fitted.classify(chain_of([1, 2, 9])) is FailureClass.MCE
        assert fitted.classify(chain_of([5, 6, 9])) is FailureClass.PANIC

    def test_classifies_episode(self, fitted):
        ep = Episode(
            NODE,
            (
                ParsedEvent(timestamp=0.0, phrase_id=1, node=NODE),
                ParsedEvent(timestamp=1.0, phrase_id=2, node=NODE),
            ),
        )
        assert fitted.classify(ep) is FailureClass.MCE

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            FailureClassifier(12).classify(chain_of([1, 2, 9]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(TrainingError):
            FailureClassifier(12).fit([chain_of([1, 2, 9])], [])

    def test_rejects_empty(self):
        with pytest.raises(TrainingError):
            FailureClassifier(12).fit([], [])

    def test_fit_with_keywords_on_real_data(self, trained_model):
        """Bootstrapped class attribution works on real extracted chains."""
        vocab_texts = [
            trained_model.parser.vocab.text_of(i)
            for i in range(trained_model.num_phrases)
        ]
        clf = FailureClassifier(trained_model.num_phrases).fit_with_keywords(
            trained_model.phase1.chains, vocab_texts
        )
        # Every chain classifies into some class without error.
        classes = {clf.classify(c) for c in trained_model.phase1.chains}
        assert classes  # at least one class present
        assert all(isinstance(c, FailureClass) for c in classes)

    def test_keyword_bootstrap_agrees_with_ground_truth(
        self, trained_model, small_log
    ):
        """Keyword attribution matches the generator's class on most chains."""
        vocab = trained_model.parser.vocab
        gt = small_log.ground_truth
        total = hits = 0
        for chain in trained_model.phase1.chains:
            match = next(
                (
                    f
                    for f in gt.failures
                    if f.node == chain.node
                    and abs(f.terminal_time - chain.terminal_time) < 5.0
                ),
                None,
            )
            if match is None:
                continue
            phrases = [vocab.text_of(int(i)) for i in chain.phrase_ids()]
            predicted = classify_by_keywords(phrases)
            total += 1
            hits += predicted is match.failure_class
        assert total > 0
        assert hits / total >= 0.7, f"keyword attribution accuracy {hits}/{total}"
