"""Cross-module integration tests: the full pipeline, end to end.

Uses the session-scoped `trained_model` / `test_split` fixtures (the
small 16-node cluster) plus a handful of scenario tests that stress the
integration seams: file round-trips feeding training, parallel scoring
equivalence, and ground-truth-based metric sanity.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis import Evaluator, lead_time_overall
from repro.core import Desh
from repro.io import read_records, write_log


class TestEndToEndMetrics:
    @pytest.fixture(scope="class")
    def result(self, trained_model, test_split):
        verdicts = trained_model.score(test_split.records)
        return Evaluator(test_split.ground_truth).evaluate(verdicts)

    def test_recall_reasonable(self, result):
        assert result.metrics.recall >= 60.0

    def test_precision_reasonable(self, result):
        assert result.metrics.precision >= 60.0

    def test_lead_times_positive(self, result):
        leads = result.lead_times()
        assert len(leads) > 0
        assert np.all(leads >= 0)

    def test_lead_times_bounded_by_horizon(self, result, trained_model):
        max_lead = trained_model.config.phase2.max_lead_seconds
        assert np.all(result.lead_times() <= max_lead)

    def test_counts_cover_all_episodes(self, result, trained_model, test_split):
        verdicts = trained_model.score(test_split.records)
        c = result.counts
        assert c.tp + c.fp + c.fn + c.tn >= len(verdicts)

    def test_all_test_failures_accounted(self, result, test_split):
        c = result.counts
        assert c.tp + c.fn == len(test_split.ground_truth.failures)


class TestFileRoundTripTraining:
    def test_training_from_file_equals_in_memory(
        self, small_log, mini_config, tmp_path, trained_model, test_split
    ):
        """Writing the log to disk and re-reading must not change results."""
        train, _ = small_log.split(0.3)
        path = tmp_path / "train.log.gz"
        write_log(path, train.records)
        reread = list(read_records(path))
        model2 = Desh(mini_config).fit(reread, train_classifier=False)
        preds1 = trained_model.predict(test_split.records)
        preds2 = model2.predict(test_split.records)
        assert len(preds1) == len(preds2)
        assert {(str(p.node), round(p.decision_time, 3)) for p in preds1} == {
            (str(p.node), round(p.decision_time, 3)) for p in preds2
        }


class TestParallelScoring:
    def test_sharded_scoring_matches_serial(self, trained_model, test_split):
        """Per-node inference distributed over shards must agree exactly."""
        parsed = trained_model.parse(test_split.records)
        sequences = [
            s for s in parsed.by_node().values() if s.node is not None
        ]
        serial = trained_model.predictor.predict_sequences(sequences)

        shards = [sequences[i::4] for i in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            chunks = pool.map(trained_model.predictor.predict_sequences, shards)
            parallel = [v for chunk in chunks for v in chunk]

        key = lambda v: (str(v.node), v.episode.start_time)
        assert sorted(
            [(key(v), v.flagged, round(v.mse, 9)) for v in serial]
        ) == sorted([(key(v), v.flagged, round(v.mse, 9)) for v in parallel])


class TestDeterminism:
    def test_repeated_fit_identical_predictions(
        self, small_log, mini_config, trained_model, test_split
    ):
        train, _ = small_log.split(0.3)
        model2 = Desh(mini_config).fit(list(train.records), train_classifier=False)
        a = trained_model.predict(test_split.records)
        b = model2.predict(test_split.records)
        assert [(str(p.node), p.decision_time, p.lead_seconds) for p in a] == [
            (str(p.node), p.decision_time, p.lead_seconds) for p in b
        ]


class TestObservations:
    def test_observation4_per_class_variance(self, trained_model, test_split):
        """Per-class lead-time std is below the overall std (Observation 4)."""
        from repro.analysis import lead_times_by_class

        result = Evaluator(test_split.ground_truth).evaluate(
            trained_model.score(test_split.records)
        )
        overall = lead_time_overall(result)
        class_stds = [
            s.std
            for s in lead_times_by_class(result).values()
            if s.count >= 3
        ]
        assert class_stds, "need at least one populated class"
        assert np.mean(class_stds) < overall.std * 1.25

    def test_maintenance_not_predicted_as_failure(
        self, trained_model, test_split
    ):
        """Mass shutdowns are service events, not anomalous failures."""
        preds = trained_model.predict(test_split.records)
        for maint in test_split.ground_truth.maintenance:
            for p in preds:
                if p.node in maint.nodes:
                    # A prediction close to the maintenance start would be
                    # a maintenance false positive.
                    assert not (
                        maint.start_time - 30.0
                        <= p.decision_time + p.lead_seconds
                        <= maint.start_time + 60.0
                    ), f"maintenance shutdown predicted as failure: {p}"
