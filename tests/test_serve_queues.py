"""Tests for the serving layer's queues, dedup and shard routing."""

import asyncio

import pytest

from repro.errors import ConfigError
from repro.serve import HashDeduper, ShardQueue, ShardRouter


class TestShardRouter:
    def test_stable_and_in_range(self):
        router = ShardRouter(4)
        keys = [f"c0-0c{i}s{j}n{k}" for i in range(2) for j in range(4) for k in range(4)]
        first = [router.shard_of_key(k) for k in keys]
        second = [router.shard_of_key(k) for k in keys]
        assert first == second
        assert all(0 <= s < 4 for s in first)
        assert len(set(first)) > 1  # keys actually spread across shards

    def test_routes_line_by_source_token(self):
        router = ShardRouter(8)
        line = "2026-01-01T00:00:00.000000 c0-0c1s2n3 kernel: mce event"
        assert router.shard_of_line(line) == router.shard_of_key("c0-0c1s2n3")

    def test_mangled_line_falls_back_to_whole_line(self):
        router = ShardRouter(8)
        assert 0 <= router.shard_of_line("garbage") < 8

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigError):
            ShardRouter(0)


class TestShardQueue:
    def test_offer_peek_commit_fifo(self):
        async def run():
            queue = ShardQueue(4)
            assert queue.offer("a") and queue.offer("b")
            assert await queue.peek() == "a"
            assert await queue.peek() == "a"  # peek does not consume
            queue.commit()
            assert await queue.peek() == "b"
            queue.commit()
            assert queue.offered == 2 and queue.committed == 2
            assert queue.depth == 0

        asyncio.run(run())

    def test_offer_bounded_and_high_water(self):
        async def run():
            queue = ShardQueue(2)
            assert queue.offer(1) and queue.offer(2)
            assert not queue.offer(3)
            assert queue.high_water == 2

        asyncio.run(run())

    def test_peek_many_returns_head_run_without_consuming(self):
        async def run():
            queue = ShardQueue(8)
            for item in ("a", "b", "c"):
                assert queue.offer(item)
            assert await queue.peek_many(2) == ["a", "b"]
            assert await queue.peek_many(8) == ["a", "b", "c"]
            assert queue.depth == 3  # nothing consumed
            queue.commit()
            assert await queue.peek_many(8) == ["b", "c"]

        asyncio.run(run())

    def test_peek_many_waits_for_first_item(self):
        async def run():
            queue = ShardQueue(4)

            async def producer():
                await asyncio.sleep(0.01)
                queue.offer("late")

            task = asyncio.ensure_future(producer())
            assert await queue.peek_many(4) == ["late"]
            await task

        asyncio.run(run())

    def test_peek_many_rejects_bad_count(self):
        async def run():
            with pytest.raises(ConfigError):
                await ShardQueue(4).peek_many(0)

        asyncio.run(run())

    def test_commit_without_item_raises(self):
        async def run():
            queue = ShardQueue(2)
            with pytest.raises(ConfigError):
                queue.commit()

        asyncio.run(run())

    def test_offer_wait_backpressure_succeeds_when_space_frees(self):
        async def run():
            queue = ShardQueue(1)
            assert queue.offer("held")

            async def consumer():
                await asyncio.sleep(0.01)
                await queue.peek()
                queue.commit()

            task = asyncio.ensure_future(consumer())
            admitted = await queue.offer_wait("waited", timeout=1.0)
            await task
            return admitted

        assert asyncio.run(run())

    def test_offer_wait_sheds_on_timeout(self):
        async def run():
            queue = ShardQueue(1)
            queue.offer("stuck")
            return await queue.offer_wait("shed me", timeout=0.02)

        assert asyncio.run(run()) is False

    def test_closed_queue_rejects_offers(self):
        async def run():
            queue = ShardQueue(2)
            queue.close()
            assert not queue.offer("x")
            assert not await queue.offer_wait("y", timeout=0.01)

        asyncio.run(run())

    def test_join_waits_for_drain_and_times_out(self):
        async def run():
            queue = ShardQueue(2)
            queue.offer("x")
            assert not await queue.join(timeout=0.02)  # nobody draining

            async def drain():
                await queue.peek()
                queue.commit()

            task = asyncio.ensure_future(drain())
            drained = await queue.join(timeout=1.0)
            await task
            assert drained

        asyncio.run(run())

    def test_crash_between_peek_and_commit_replays_item(self):
        """The peek/commit contract behind bit-identical crash recovery."""

        async def run():
            queue = ShardQueue(4)
            queue.offer("item")
            first = await queue.peek()
            # Simulated crash: no commit.  The item must still be there.
            second = await queue.peek()
            assert first is second
            queue.commit()
            assert queue.depth == 0

        asyncio.run(run())

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            ShardQueue(0)


def _admit(dedup: HashDeduper, line: str) -> bool:
    """Admit *line* the way ``PredictionService.ingest_lines`` does.

    Reserve the digest, then commit it as an admitted batch would;
    returns ``False`` (and counts a duplicate) when the window or an
    in-flight reservation already holds the line.
    """
    digest = dedup.digest(line)
    if not dedup.reserve(digest):
        dedup.duplicates += 1
        return False
    dedup.commit_reserved(digest)
    return True


class TestHashDeduper:
    def test_detects_duplicates_in_window(self):
        dedup = HashDeduper(16)
        assert _admit(dedup, "line one")
        assert _admit(dedup, "line two")
        assert not _admit(dedup, "line one")
        assert dedup.duplicates == 1

    def test_window_eviction_forgets_old_lines(self):
        dedup = HashDeduper(2)
        assert _admit(dedup, "a")
        assert _admit(dedup, "b")
        assert _admit(dedup, "c")  # evicts "a"
        assert _admit(dedup, "a")  # forgotten, admitted again
        assert not _admit(dedup, "c")  # still in the window

    def test_zero_window_disables_dedup(self):
        dedup = HashDeduper(0)
        assert _admit(dedup, "same")
        assert _admit(dedup, "same")
        assert not dedup.contains(dedup.digest("same"))
        assert dedup.duplicates == 0

    def test_contains_does_not_record(self):
        dedup = HashDeduper(8)
        digest = dedup.digest("pending line")
        assert not dedup.contains(digest)
        assert not dedup.contains(digest)  # query is side-effect free
        dedup.record(digest)
        assert dedup.contains(digest)

    def test_shed_then_retry_is_not_deduped(self):
        # The ingest contract: only *admitted* lines are recorded, so a
        # client retrying a shed batch is not mistaken for a duplicate.
        dedup = HashDeduper(8)
        digest = dedup.digest("shed line")
        assert not dedup.contains(digest)  # first attempt: checked, shed
        assert not dedup.contains(digest)  # retry: still admissible
        dedup.record(digest)
        assert dedup.contains(digest)  # accepted now; third copy dedups

    def test_reserve_blocks_in_flight_duplicates_until_resolved(self):
        # The reservation protocol closes the check-then-act window in
        # ingest: the digest is staged before any await, so a concurrent
        # batch carrying the same line dedups against the reservation.
        dedup = HashDeduper(8)
        digest = dedup.digest("in flight")
        assert dedup.reserve(digest)
        assert not dedup.reserve(digest)  # concurrent twin: deduped
        dedup.release(digest)  # shed: reservation leaves no trace...
        assert not dedup.contains(digest)
        assert dedup.reserve(digest)  # ...so the client retry is admitted
        dedup.commit_reserved(digest)  # admitted: promoted to the window
        assert dedup.contains(digest)
        assert not dedup.reserve(digest)

    def test_reserve_with_zero_window_always_admits(self):
        dedup = HashDeduper(0)
        assert dedup.reserve(b"x")
        assert dedup.reserve(b"x")

    def test_reservations_are_transient_not_checkpointed(self):
        dedup = HashDeduper(8)
        committed = dedup.digest("committed line")
        in_flight = dedup.digest("in-flight line")
        assert dedup.reserve(committed)
        dedup.commit_reserved(committed)
        assert dedup.reserve(in_flight)

        restored = HashDeduper(8)
        restored.load_state_dict(dedup.state_dict())
        assert restored.contains(committed)
        # A reservation is pre-admission state: it must not survive a
        # restore, or a crashed ingest would pin its lines forever.
        assert restored.reserve(in_flight)

    def test_state_dict_round_trip(self):
        dedup = HashDeduper(4)
        for line in ["a", "b", "a", "c"]:
            _admit(dedup, line)
        state = dedup.state_dict()
        restored = HashDeduper(4)
        restored.load_state_dict(state)
        assert restored.duplicates == dedup.duplicates == 1
        assert _admit(restored, "a") == _admit(dedup, "a") is False
        assert _admit(restored, "zz") == _admit(dedup, "zz") is True
        assert restored.state_dict() == dedup.state_dict()

    def test_load_rejects_bad_version(self):
        with pytest.raises(ConfigError):
            HashDeduper(4).load_state_dict({"version": 99})

    def test_rejects_negative_window(self):
        with pytest.raises(ConfigError):
            HashDeduper(-1)
