"""Tests for rolling-origin evaluation and parallel scoring."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis import Evaluator, rolling_origin_evaluation
from repro.errors import ConfigError


class TestRollingOrigin:
    @pytest.fixture(scope="class")
    def folds(self, small_log, mini_config):
        return rolling_origin_evaluation(
            small_log,
            mini_config,
            origins=(0.3, 0.5),
            test_window_fraction=0.3,
        )

    def test_one_result_per_trainable_origin(self, folds):
        assert len(folds) == 2

    def test_windows_do_not_leak(self, folds):
        for fold in folds:
            assert fold.train_end < fold.test_end

    def test_folds_have_failures(self, folds):
        for fold in folds:
            assert fold.num_train_failures > 0
            assert fold.num_test_failures > 0

    def test_later_origin_more_training_failures(self, folds):
        assert folds[1].num_train_failures > folds[0].num_train_failures

    def test_metrics_reasonable_on_every_fold(self, folds):
        """Single-split performance is not a fluke of the cut point."""
        for fold in folds:
            assert fold.metrics.recall >= 50.0
            assert fold.metrics.precision >= 50.0

    def test_rejects_bad_origins(self, small_log, mini_config):
        with pytest.raises(ConfigError):
            rolling_origin_evaluation(small_log, mini_config, origins=())
        with pytest.raises(ConfigError):
            rolling_origin_evaluation(small_log, mini_config, origins=(1.5,))

    def test_rejects_bad_window(self, small_log, mini_config):
        with pytest.raises(ConfigError):
            rolling_origin_evaluation(
                small_log, mini_config, test_window_fraction=0.0
            )


class TestParallelScore:
    def test_parallel_equals_serial(self, trained_model, test_split):
        """Thread-sharded ``score_sequences`` calls share one model safely."""
        serial = trained_model.score(test_split.records)
        parsed = trained_model.parse(test_split.records)
        sequences = [
            s for s in parsed.by_node().values() if s.node is not None
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            chunks = pool.map(
                trained_model.score_sequences,
                [sequences[i::4] for i in range(4)],
            )
            parallel = [v for chunk in chunks for v in chunk]
        key = lambda v: (str(v.node), v.episode.start_time)
        assert sorted((key(v), v.flagged, round(v.mse, 9)) for v in serial) == sorted(
            (key(v), v.flagged, round(v.mse, 9)) for v in parallel
        )


class TestMonitorClassAttribution:
    def test_online_warnings_carry_class(self, trained_model, test_split):
        from repro.core import StreamingMonitor
        from repro.simlog.faults import FailureClass

        monitor = StreamingMonitor(trained_model)
        warnings = list(monitor.run(test_split.records))
        assert warnings
        class_names = {c.value for c in FailureClass}
        attributed = [w for w in warnings if w.likely_class is not None]
        assert attributed, "warnings should carry a likely failure class"
        assert all(w.likely_class in class_names for w in attributed)

    def test_class_appears_in_message(self, trained_model, test_split):
        from repro.core import StreamingMonitor

        monitor = StreamingMonitor(trained_model)
        for warning in monitor.run(test_split.records):
            if warning.likely_class:
                assert f"likely {warning.likely_class}" in warning.message()
                break
        else:
            pytest.fail("no class-attributed warning raised")
