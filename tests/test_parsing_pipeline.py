"""Tests for the end-to-end log parser."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.events import Label
from repro.parsing import LogParser, PhraseVocabulary
from repro.parsing.tokenizer import mask_message
from repro.simlog.record import LogRecord
from repro.topology import CrayNodeId


class TestFitTransform:
    def test_all_records_encoded(self, small_log, fitted_parser):
        result = fitted_parser.transform(small_log.records)
        assert len(result) == len(small_log.records)
        assert result.skipped == 0

    def test_phrases_match_catalog_size(self, small_log, fitted_parser):
        """Mining must find (at most) one phrase per catalog template."""
        assert fitted_parser.num_phrases <= len(small_log.catalog)
        assert fitted_parser.num_phrases > 30

    def test_labels_match_ground_truth(self, small_log, fitted_parser, rng):
        """Parser labels agree with the catalog's intrinsic labels."""
        for template in small_log.catalog:
            canon = mask_message(template.fill(rng))
            pid = fitted_parser.vocab.get_id(canon)
            if pid >= 0:
                assert fitted_parser.phrase_label(pid) == template.label

    def test_terminal_ids_detected(self, fitted_parser):
        terminals = fitted_parser.terminal_ids()
        assert terminals, "terminal phrases must be detected"
        for pid in terminals:
            assert fitted_parser.phrase_label(pid) == Label.ERROR

    def test_events_sorted(self, small_log, fitted_parser):
        result = fitted_parser.transform(small_log.records)
        times = [e.timestamp for e in result.events]
        assert times == sorted(times)

    def test_by_node_partitions(self, small_log, fitted_parser):
        result = fitted_parser.transform(small_log.records)
        by_node = result.by_node()
        assert sum(len(s) for s in by_node.values()) == len(result)
        for node, seq in by_node.items():
            assert all(e.node == node for e in seq)

    def test_unknown_message_skipped(self, fitted_parser):
        record = LogRecord(
            1.0,
            CrayNodeId(0, 0, 0, 0, 0),
            "kernel",
            "entirely novel message shape never mined before xyz",
        )
        result = fitted_parser.transform([record])
        assert result.skipped == 1
        assert len(result) == 0

    def test_encode_before_fit_raises(self):
        parser = LogParser()
        with pytest.raises(NotFittedError):
            parser.encode(LogRecord(0.0, None, "kernel", "x"))

    def test_phrases_with_label(self, fitted_parser):
        safe = fitted_parser.phrases_with_label(Label.SAFE)
        err = fitted_parser.phrases_with_label(Label.ERROR)
        assert safe and err
        assert not set(safe) & set(err)

    def test_phrases_with_bad_label_raises(self, fitted_parser):
        with pytest.raises(NotFittedError):
            fitted_parser.phrases_with_label("bogus")

    def test_phrase_label_out_of_range(self, fitted_parser):
        with pytest.raises(NotFittedError):
            fitted_parser.phrase_label(10_000)

    def test_fit_transform_equivalent(self, small_log):
        parser = LogParser()
        result = parser.fit_transform(list(small_log.records[:500]))
        assert len(result) == 500

    def test_node_events_filter(self, small_log, fitted_parser):
        result = fitted_parser.transform(small_log.records)
        node = small_log.ground_truth.failures[0].node
        seq = result.node_events(node)
        assert all(e.node == node for e in seq)

    def test_transform_is_deterministic(self, small_log, fitted_parser):
        a = fitted_parser.transform(small_log.records[:200])
        b = fitted_parser.transform(small_log.records[:200])
        assert [e.phrase_id for e in a.events] == [e.phrase_id for e in b.events]


class TestFromVocabulary:
    def test_reconstruction_matches_original(self, small_log, fitted_parser):
        """A parser rebuilt from the vocabulary encodes identically."""
        rebuilt = LogParser.from_vocabulary(fitted_parser.vocab)
        assert rebuilt.num_phrases == fitted_parser.num_phrases
        a = fitted_parser.transform(small_log.records[:500])
        b = rebuilt.transform(small_log.records[:500])
        assert [e.phrase_id for e in a.events] == [e.phrase_id for e in b.events]
        assert [e.label for e in a.events] == [e.label for e in b.events]

    def test_terminal_flags_preserved(self, fitted_parser):
        rebuilt = LogParser.from_vocabulary(fitted_parser.vocab)
        assert rebuilt.terminal_ids() == fitted_parser.terminal_ids()

    def test_round_trip_preserves_counts(self, fitted_parser, tmp_path):
        """Occurrence counts survive save -> load -> rebuild unchanged."""
        path = tmp_path / "vocab.json"
        fitted_parser.vocab.save(path)
        rebuilt = LogParser.from_vocabulary(PhraseVocabulary.load(path))
        counts = fitted_parser.vocab.counts()
        assert counts.max() > 1
        assert np.array_equal(rebuilt.vocab.counts(), counts)
