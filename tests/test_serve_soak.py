"""Chaos-soak acceptance tests: the service's robustness contract.

Marked ``soak`` (deselect with ``-m 'not soak'``); CI runs them as a
dedicated short smoke-soak job with a hard per-job timeout.
"""

import asyncio

import pytest

from repro.serve import (
    AVAILABILITY_SLO,
    RECOVERY_SLO_SECONDS,
    PredictionService,
    ServeConfig,
    run_soak,
)
from repro.serve.soak import SoakReport
from repro.errors import ServeError
from repro.resilience import FaultProfile
from repro.simlog.record import parse_line, render_line


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


def _serve(model, lines):
    """Feed *lines* through a 2-shard service in 100-line batches.

    Returns the alerts (without the scheduler-dependent ``seq``) as a
    sorted multiset, every shard's monitor state and the restart count.
    """

    async def run():
        service = PredictionService(
            model,
            ServeConfig(num_shards=2, queue_depth=256, dedup_window=100_000),
        )
        await service.start(restore=False)
        for i in range(0, len(lines), 100):
            result = await service.ingest_lines(lines[i : i + 100])
            assert result.shed == 0
        await service.stop(checkpoint=False)
        return service

    service = asyncio.run(run())
    alerts = sorted(
        sorted((k, v) for k, v in alert.items() if k != "seq")
        for alert in service.alerts_since(0)
    )
    states = [shard.monitor.state_dict() for shard in service._shards]
    return alerts, states, service.supervisor.total_restarts


def _assert_replayed_exactly(faulted, fault_free):
    alerts, states, restarts = faulted
    assert restarts == 1
    assert len(alerts) == len(fault_free[0])
    assert alerts == fault_free[0]
    assert states == fault_free[1]


@pytest.mark.soak
class TestMidItemReplay:
    """A fault raised inside a shard item replays to the fault-free run."""

    @pytest.fixture(scope="class")
    def lines(self, test_split):
        return [render_line(r) for r in test_split.records][:1500]

    @pytest.fixture(scope="class")
    def fault_free(self, trained_model, lines):
        return _serve(trained_model, lines)

    def test_fault_free_run_alerts_without_restarts(self, fault_free):
        alerts, _, restarts = fault_free
        assert len(alerts) > 0
        assert restarts == 0

    @pytest.mark.parametrize("flush", [1, 2, 3, 5, 8, 12, 20])
    def test_scorer_raising_once_at_flush(
        self, trained_model, lines, fault_free, flush, monkeypatch
    ):
        score = trained_model.predictor.score_partial_batch
        calls = []

        def raise_once(units):
            calls.append(len(units))
            if len(calls) == flush:
                raise RuntimeError(f"scorer fault at flush {flush}")
            return score(units)

        monkeypatch.setattr(
            trained_model.predictor, "score_partial_batch", raise_once
        )
        _assert_replayed_exactly(_serve(trained_model, lines), fault_free)

    def test_encode_raising_once_mid_batch(
        self, trained_model, lines, fault_free, monkeypatch
    ):
        # Line 737 sits in the middle of the 8th ingest batch, so the
        # records before it in its shard item were already fed.
        poisoned = parse_line(lines[737])
        encode = trained_model.parser.encode
        raised = []

        def raise_once(record):
            if record == poisoned and not raised:
                raised.append(record)
                raise RuntimeError("encode fault mid-batch")
            return encode(record)

        monkeypatch.setattr(trained_model.parser, "encode", raise_once)
        _assert_replayed_exactly(_serve(trained_model, lines), fault_free)
        assert raised


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
