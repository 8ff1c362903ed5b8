"""Tests for the sharded PredictionService: ingest, predict, resume."""

import asyncio
import json

import pytest

from repro.errors import ConfigError, InjectedFaultError, ServeError
from repro.serve import PredictionService, ServeConfig
from repro.simlog.record import render_line


@pytest.fixture
def lines(test_split):
    return [render_line(r) for r in test_split.records]


def _config(**overrides):
    base = dict(
        num_shards=2,
        queue_depth=64,
        backpressure_wait=0.02,
        drain_timeout=2.0,
        dedup_window=100_000,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _monitor_states(service):
    return json.dumps(
        [shard.monitor.state_dict() for shard in service._shards],
        sort_keys=True,
    )


class TestIngest:
    def test_ingest_processes_lines_and_raises_alerts(
        self, trained_model, lines
    ):
        async def run():
            service = PredictionService(trained_model, _config())
            await service.start(restore=False)
            result = await service.ingest_lines(lines[:800])
            await service.stop(checkpoint=False)
            return service, result

        service, result = asyncio.run(run())
        assert result.accepted == 800
        assert result.shed == 0
        health = service.health()
        assert sum(s["lines_processed"] for s in health["shards"]) == 800
        assert health["alert_seq"] > 0
        assert service.alerts_since(0)

    def test_duplicate_lines_are_deduped(self, trained_model, lines):
        async def run():
            service = PredictionService(trained_model, _config())
            await service.start(restore=False)
            first = await service.ingest_lines(lines[:50])
            again = await service.ingest_lines(lines[:50])
            await service.stop(checkpoint=False)
            return first, again

        first, again = asyncio.run(run())
        assert first.deduped == 0
        assert again.deduped == 50
        assert again.accepted == 0

    def test_backpressure_then_shed_with_retry_after(
        self, trained_model, lines
    ):
        async def run():
            # A forever-stalling hook wedges the worker mid-item, so the
            # tiny queue fills and further batches must shed.
            config = _config(
                num_shards=1,
                queue_depth=2,
                backpressure_wait=0.01,
                drain_timeout=0.1,
            )
            service = PredictionService(
                trained_model, config, fault_hook=lambda s, i: 3600.0
            )
            await service.start(restore=False)
            results = [
                await service.ingest_lines(lines[i : i + 10])
                for i in range(0, 40, 10)
            ]
            await service.stop(checkpoint=False)
            return results

        results = asyncio.run(run())
        shed = [r for r in results if r.shed]
        assert shed, "full queue never shed load"
        assert all(r.retry_after is not None for r in shed)
        assert all(r.shed_lines for r in shed)

    def test_shed_lines_are_retryable_not_deduped(self, trained_model, lines):
        async def run():
            config = _config(
                num_shards=1,
                queue_depth=1,
                backpressure_wait=0.01,
                drain_timeout=0.1,
            )
            service = PredictionService(
                trained_model, config, fault_hook=lambda s, i: 3600.0
            )
            await service.start(restore=False)
            # The first batch wedges the stalled worker and pins the
            # depth-1 queue full, so the second batch must shed.
            filler = await service.ingest_lines(lines[:10])
            shed = await service.ingest_lines(lines[10:40])
            retry = await service.ingest_lines(shed.shed_lines)
            duplicate = await service.ingest_lines(lines[:10])
            await service.stop(checkpoint=False)
            return filler, shed, retry, duplicate

        filler, shed, retry, duplicate = asyncio.run(run())
        assert filler.accepted == 10
        assert shed.shed == 30 and shed.shed_lines
        # Shed lines were never recorded in the dedup window: the retry
        # is treated as a fresh admission attempt, not a duplicate...
        assert retry.deduped == 0
        assert retry.shed == 30
        # ...while re-sending *admitted* lines is deduplicated.
        assert duplicate.deduped == 10

    def test_sealed_service_sheds_everything(self, trained_model, lines):
        async def run():
            service = PredictionService(trained_model, _config())
            await service.start(restore=False)
            await service.stop(checkpoint=False)
            return await service.ingest_lines(lines[:10])

        result = asyncio.run(run())
        assert result.shed == 10
        assert result.accepted == 0
        assert result.retry_after is not None

    def test_concurrent_ingest_of_same_line_admits_it_once(
        self, trained_model, lines
    ):
        # Regression for the dedup check-then-act race: the window
        # membership test used to run before the backpressure await
        # while record() ran after it, so two concurrent batches
        # carrying the same line could both pass the check and both be
        # admitted.  reserve() now stages the digest before any await.
        async def run():
            config = _config(
                num_shards=1, queue_depth=2, backpressure_wait=1.0
            )
            service = PredictionService(trained_model, config)
            service._accepting = True  # ingest path without live workers
            queue = service._shards[0].queue
            # Fill the queue so both ingests block in offer_wait with
            # their dedup decision already made.
            assert queue.offer(("lines", [lines[1]]))
            assert queue.offer(("lines", [lines[2]]))
            first = asyncio.create_task(service.ingest_lines([lines[0]]))
            second = asyncio.create_task(service.ingest_lines([lines[0]]))
            await asyncio.sleep(0.05)
            queue.commit()  # open space for *both* waiters
            queue.commit()
            return await asyncio.gather(first, second)

        first, second = asyncio.run(run())
        assert first.accepted + second.accepted == 1
        assert first.deduped + second.deduped == 1
        assert first.shed + second.shed == 0


class TestPredict:
    @staticmethod
    async def _drained_service(trained_model, lines):
        """A started service whose workers have fed *lines* to the end.

        Ingest returns at enqueue time; waiting for the workers to drain
        leaves the monitors with open episodes to predict on.
        """
        service = PredictionService(trained_model, _config())
        await service.start(restore=False)
        await service.ingest_lines(lines)
        for _ in range(500):
            if not any(s.queue.depth for s in service._shards):
                break
            await asyncio.sleep(0.01)
        return service

    def test_predict_over_live_service(self, trained_model, lines):
        async def run():
            service = await self._drained_service(trained_model, lines[:800])
            nodes = []
            for shard in service._shards:
                nodes.extend(str(n) for n in shard.monitor.pending_nodes())
            answer = await service.predict(nodes[0], deadline_seconds=5.0)
            await service.stop(checkpoint=False)
            return answer

        answer = asyncio.run(run())
        assert answer["degraded"] is False
        assert answer["open_events"] > 0
        assert answer["lead_seconds"] >= 0.0

    def test_predict_equals_batch_of_one_score(self, trained_model, lines):
        async def run():
            service = await self._drained_service(trained_model, lines[:800])
            node, episode = next(
                (node, shard.monitor.open_episode(node))
                for shard in service._shards
                for node in shard.monitor.pending_nodes()
                if len(shard.monitor.open_episode(node)) >= 2
            )
            answer = await service.predict(str(node), deadline_seconds=5.0)
            await service.stop(checkpoint=False)
            return answer, episode

        answer, episode = asyncio.run(run())
        (expected,) = trained_model.predictor.score_partial_batch([episode])
        assert answer["degraded"] is False
        assert answer["open_events"] == len(episode)
        assert answer["flagged"] is expected.flagged
        assert answer["mse"] == expected.mse
        assert answer["lead_seconds"] == expected.lead_seconds

    def test_predict_deadline_expires_to_degraded_answer(
        self, trained_model, lines
    ):
        async def run():
            config = _config(
                num_shards=1, queue_depth=8, drain_timeout=0.1
            )
            service = PredictionService(
                trained_model, config, fault_hook=lambda s, i: 3600.0
            )
            await service.start(restore=False)
            await service.ingest_lines(lines[:5])
            answer = await service.predict(
                "c0-0c0s0n0", deadline_seconds=0.05
            )
            await service.stop(checkpoint=False)
            return answer

        answer = asyncio.run(run())
        assert answer["degraded"] is True
        assert answer["reason"] == "deadline-expired"

    def test_predict_bad_node_id_degrades(self, trained_model):
        async def run():
            service = PredictionService(trained_model, _config())
            await service.start(restore=False)
            answer = await service.predict("not-a-node", deadline_seconds=2.0)
            await service.stop(checkpoint=False)
            return answer

        answer = asyncio.run(run())
        assert answer["degraded"] is True
        assert answer["reason"] == "bad-node-id"

    def test_predict_rejects_nonpositive_deadline(self, trained_model):
        async def run():
            service = PredictionService(trained_model, _config())
            await service.start(restore=False)
            try:
                with pytest.raises(ConfigError):
                    await service.predict("c0-0c0s0n0", deadline_seconds=0.0)
            finally:
                await service.stop(checkpoint=False)

        asyncio.run(run())


class TestHealth:
    def test_crash_looping_worker_reads_degraded_until_it_recovers(
        self, trained_model, lines
    ):
        crashing = [True]

        def hook(shard, item):
            if crashing[0]:
                raise InjectedFaultError("worker fault on every item")
            return None

        async def run():
            service = PredictionService(
                trained_model, _config(num_shards=1), fault_hook=hook
            )
            await service.start(restore=False)
            assert service.health()["status"] == "ok"
            await service.ingest_lines(lines[:20])
            for _ in range(200):
                if service.supervisor.total_restarts >= 2:
                    break
                await asyncio.sleep(0.01)
            during = service.health()
            crashing[0] = False
            drained = await service._shards[0].queue.join(5.0)
            after = service.health()
            await service.stop(checkpoint=False)
            return during, drained, after

        during, drained, after = asyncio.run(run())
        assert during["restarts"] >= 2
        assert during["shards"][0]["worker"]["consecutive_failures"] > 0
        assert during["status"] == "degraded"
        assert drained
        assert after["shards"][0]["worker"]["consecutive_failures"] == 0
        assert after["status"] == "ok"


class TestCheckpointResume:
    def test_resume_is_bit_identical_to_uninterrupted_run(
        self, trained_model, lines, tmp_path
    ):
        config = _config(checkpoint_dir=str(tmp_path / "ckpt"))

        async def interrupted():
            service = PredictionService(trained_model, config)
            await service.start(restore=False)
            for i in range(0, 400, 100):
                await service.ingest_lines(lines[i : i + 100])
            path = await service.stop(checkpoint=True)
            assert path is not None
            resumed = PredictionService(trained_model, config)
            assert await resumed.start(restore=True) is True
            for i in range(400, 800, 100):
                await resumed.ingest_lines(lines[i : i + 100])
            await resumed.stop(checkpoint=False)
            return resumed

        async def uninterrupted():
            service = PredictionService(trained_model, config)
            await service.start(restore=False)
            for i in range(0, 800, 100):
                await service.ingest_lines(lines[i : i + 100])
            await service.stop(checkpoint=False)
            return service

        resumed = asyncio.run(interrupted())
        straight = asyncio.run(uninterrupted())
        assert _monitor_states(resumed) == _monitor_states(straight)
        assert resumed.dedup.state_dict() == straight.dedup.state_dict()

    def test_restore_rejects_shard_count_mismatch(
        self, trained_model, lines, tmp_path
    ):
        ckpt = str(tmp_path / "ckpt")

        async def run():
            service = PredictionService(
                trained_model, _config(checkpoint_dir=ckpt)
            )
            await service.start(restore=False)
            await service.ingest_lines(lines[:50])
            await service.stop(checkpoint=True)
            other = PredictionService(
                trained_model, _config(num_shards=4, checkpoint_dir=ckpt)
            )
            with pytest.raises(ServeError, match="shard"):
                await other.start(restore=True)

        asyncio.run(run())

    def test_start_without_checkpoint_restores_nothing(self, trained_model):
        async def run():
            service = PredictionService(trained_model, _config())
            restored = await service.start(restore=True)
            await service.stop(checkpoint=False)
            return restored

        assert asyncio.run(run()) is False


class TestLifecycleAndIntrospection:
    def test_worker_crash_is_restarted_and_item_replayed(
        self, trained_model, lines
    ):
        crashes = {"left": 2}

        def hook(_shard, _item):
            if crashes["left"] > 0:
                crashes["left"] -= 1
                from repro.errors import InjectedFaultError

                raise InjectedFaultError("injected")
            return None

        async def run():
            config = _config(num_shards=1)
            service = PredictionService(trained_model, config, fault_hook=hook)
            await service.start(restore=False)
            result = await service.ingest_lines(lines[:100])
            await service.stop(checkpoint=False)
            return service, result

        service, result = asyncio.run(run())
        assert result.accepted == 100
        assert service.supervisor.total_restarts == 2
        # The crashed item was replayed, not lost: all lines processed.
        assert service._shards[0].lines_processed == 100
        assert service.supervisor.recovery_times()

    def test_subscribers_get_alerts_and_shutdown_sentinel(
        self, trained_model, lines
    ):
        async def run():
            service = PredictionService(trained_model, _config())
            await service.start(restore=False)
            queue = service.subscribe()
            await service.ingest_lines(lines[:800])
            alert = await asyncio.wait_for(queue.get(), 10.0)
            await service.stop(checkpoint=False)
            # Shutdown drains remaining alerts, then posts the sentinel.
            while True:
                item = await asyncio.wait_for(queue.get(), 1.0)
                if item is None:
                    break
            return alert

        alert = asyncio.run(run())
        assert alert["node"]
        assert alert["seq"] >= 1

    def test_alerts_since_filters_by_sequence(self, trained_model, lines):
        async def run():
            service = PredictionService(trained_model, _config())
            await service.start(restore=False)
            await service.ingest_lines(lines[:800])
            await service.stop(checkpoint=False)
            return service

        service = asyncio.run(run())
        alerts = service.alerts_since(0)
        assert len(alerts) >= 2
        later = service.alerts_since(alerts[0]["seq"])
        assert len(later) == len(alerts) - 1

    def test_node_status_and_invalid_id(self, trained_model, lines):
        async def run():
            service = PredictionService(trained_model, _config())
            await service.start(restore=False)
            await service.ingest_lines(lines[:800])
            await service.stop(checkpoint=False)
            return service

        service = asyncio.run(run())
        assert service.node_status("zzz not a node") is None
        nodes = service._shards[0].monitor.pending_nodes()
        if nodes:
            status = service.node_status(str(nodes[0]))
            assert status["open_events"] > 0
            assert status["shard"] == 0

    def test_stop_drains_every_queue_before_cancelling_workers(
        self, trained_model, lines
    ):
        # Shutdown ordering contract: stop() closes the queues, joins
        # each one, and only then cancels the workers — so no worker is
        # ever cancelled while holding an uncommitted peek.  Observable
        # as: every admitted item is committed by the time stop()
        # returns, with nothing left queued.
        async def run():
            service = PredictionService(trained_model, _config())
            await service.start(restore=False)
            result = await service.ingest_lines(lines[:400])
            await service.stop(checkpoint=False)
            return service, result

        service, result = asyncio.run(run())
        assert result.accepted == 400
        for shard in service._shards:
            assert shard.queue.depth == 0
            assert shard.queue.committed == shard.queue.offered
        processed = sum(
            s["lines_processed"] for s in service.health()["shards"]
        )
        assert processed == 400

    def test_double_start_rejected(self, trained_model):
        async def run():
            service = PredictionService(trained_model, _config())
            await service.start(restore=False)
            try:
                with pytest.raises(ServeError):
                    await service.start(restore=False)
            finally:
                await service.stop(checkpoint=False)

        asyncio.run(run())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServeConfig(num_shards=0)
        with pytest.raises(ConfigError):
            ServeConfig(queue_depth=0)
        with pytest.raises(ConfigError):
            ServeConfig(drain_batch_items=0)
        with pytest.raises(ConfigError):
            ServeConfig(backpressure_wait=-1.0)
        with pytest.raises(ConfigError):
            ServeConfig(dedup_window=-1)
        with pytest.raises(ConfigError):
            ServeConfig(alert_buffer=0)
        with pytest.raises(ConfigError):
            ServeConfig(checkpoint_keep=0)
