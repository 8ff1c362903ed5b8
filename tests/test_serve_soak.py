"""Chaos-soak acceptance tests: the service's robustness contract.

Marked ``soak`` (deselect with ``-m 'not soak'``); CI runs them as a
dedicated short smoke-soak job with a hard per-job timeout.
"""

import pytest

from repro.serve import (
    AVAILABILITY_SLO,
    RECOVERY_SLO_SECONDS,
    ServeConfig,
    run_soak,
)
from repro.serve.soak import SoakReport
from repro.errors import ServeError
from repro.resilience import FaultProfile
from repro.simlog.record import render_line


@pytest.fixture(scope="module")
def soak_lines(test_split):
    return [render_line(r) for r in test_split.records][:2500]


@pytest.mark.soak
class TestCrashSoak:
    """Worker-crash injection: restarts, replay, bit-identity, SLO."""

    @pytest.fixture(scope="class")
    def report(self, trained_model, soak_lines):
        return run_soak(
            trained_model,
            soak_lines,
            "service-crash",
            seed=3,
            predict_every=8,
        )

    def test_no_unhandled_exceptions(self, report):
        assert report.unhandled_errors == []

    def test_crashes_were_injected_and_every_worker_restarted(self, report):
        assert report.crashes_injected > 0
        assert report.worker_restarts == report.crashes_injected
        assert report.workers_given_up == 0

    def test_load_is_shed_not_lost(self, report):
        assert report.lost == 0
        assert report.availability >= AVAILABILITY_SLO
        assert report.accepted == report.lines_sent - report.deduped

    def test_predictions_bit_identical_to_fault_free_run(self, report):
        assert report.bit_identical is True

    def test_recovery_under_slo(self, report):
        # Back-to-back crashes on the same item collapse into one
        # measured recovery interval, so the count is bounded by (not
        # necessarily equal to) the injected crash count.
        assert 1 <= len(report.recovery_times) <= report.crashes_injected
        assert report.max_recovery_seconds <= RECOVERY_SLO_SECONDS

    def test_report_serializes(self, report):
        out = report.as_dict()
        assert out["profile"] == "service-crash"
        assert out["bit_identical"] is True
        assert len(report.predict_latencies) > 0


@pytest.mark.soak
class TestStormSoak:
    """Crashes + stalls + bursts + line damage: shed, never error."""

    @pytest.fixture(scope="class")
    def report(self, trained_model, soak_lines):
        return run_soak(trained_model, soak_lines, "service-storm", seed=5)

    def test_no_unhandled_exceptions_and_nothing_lost(self, report):
        assert report.unhandled_errors == []
        assert report.lost == 0
        assert report.workers_given_up == 0
        assert report.worker_restarts == report.crashes_injected

    def test_line_faults_preclude_bit_identity_assertion(self, report):
        assert report.bit_identical is None

    def test_service_faults_were_exercised(self, report):
        assert (
            report.stalls_injected + report.bursts_injected
            + report.crashes_injected
        ) > 0


class TestSoakHarness:
    def test_unknown_profile_rejected(self, trained_model):
        with pytest.raises(ServeError, match="unknown fault profile"):
            run_soak(trained_model, ["x"], "no-such-profile")

    def test_custom_profile_and_config(self, trained_model, soak_lines):
        report = run_soak(
            trained_model,
            soak_lines[:300],
            FaultProfile(crash_rate=0.3),
            seed=1,
            config=ServeConfig(
                num_shards=2,
                queue_depth=32,
                dedup_window=10_000,
            ),
            batch_size=32,
        )
        assert report.profile == "custom"
        assert report.crashes_injected > 0
        assert report.bit_identical is True
        assert report.unhandled_errors == []

    def test_reordered_lines_do_not_crash_workers(
        self, trained_model, soak_lines
    ):
        # Late anomalous lines reach the monitor out of time order; they
        # must be absorbed, not surface as worker crashes and restarts.
        report = run_soak(
            trained_model,
            soak_lines,
            FaultProfile(reorder_window=8),
            seed=1,
            config=ServeConfig(num_shards=2),
        )
        assert report.unhandled_errors == []
        assert report.worker_restarts == report.crashes_injected

    def test_null_report_properties(self):
        report = SoakReport(profile="none")
        assert report.availability == 1.0
        assert report.max_recovery_seconds == 0.0
