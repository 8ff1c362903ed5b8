"""Unit tests for the pipeline runner, fingerprints and artifact store.

These use toy stages (no ML) so DAG validation, fingerprint chaining,
cache hits and corruption recovery are tested in milliseconds.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import DeshConfig
from repro.errors import ArtifactError, PipelineError
from repro.pipeline import (
    ArtifactStore,
    PipelineRunner,
    Stage,
    StageContext,
    canonical_json,
    fingerprint_payload,
    fingerprint_records,
)
from repro.simlog.record import LogRecord


class _JsonStage(Stage):
    """Toy stage persisting its value as a JSON list."""

    def __init__(self, name, deps=(), *, payload=None, consumes_source=False):
        self.name = name
        self.deps = tuple(deps)
        self.payload = payload if payload is not None else {"stage": name}
        self.consumes_source = consumes_source
        self.runs = 0

    def config_payload(self):
        return self.payload

    def run(self, ctx):
        raise NotImplementedError(self.name)

    def save(self, value, directory: Path) -> None:
        (directory / "value.json").write_text(json.dumps(value))

    def load(self, directory: Path, ctx):
        return json.loads((directory / "value.json").read_text())


class _Numbers(_JsonStage):
    def __init__(self, **kw):
        super().__init__("numbers", consumes_source=True, **kw)

    def run(self, ctx):
        self.runs += 1
        return [1, 2, 3]


class _Double(_JsonStage):
    def __init__(self, **kw):
        super().__init__("double", deps=("numbers",), **kw)

    def run(self, ctx):
        self.runs += 1
        return [v * 2 for v in ctx.value("numbers")]


class _Total(_JsonStage):
    def __init__(self, **kw):
        super().__init__("total", deps=("double",), **kw)

    def run(self, ctx):
        self.runs += 1
        return [sum(ctx.value("double"))]


class _Constant(_JsonStage):
    """No deps and not a source consumer: immune to data changes."""

    def __init__(self, **kw):
        super().__init__("constant", **kw)

    def run(self, ctx):
        self.runs += 1
        return [42]


class _Peek(_JsonStage):
    """Reads an arbitrary artifact and records every context it sees."""

    def __init__(self, name, deps=(), *, reads=None, **kw):
        super().__init__(name, deps=deps, **kw)
        self.reads = reads
        self.seen = []

    def run(self, ctx):
        self.seen.append(("run", dict(ctx.inputs), ctx.records))
        if self.reads is None:
            return [1]
        return [ctx.value(self.reads)[0] + 1]

    def load(self, directory: Path, ctx):
        self.seen.append(("load", dict(ctx.inputs), ctx.records))
        return super().load(directory, ctx)


def _stages():
    return [_Numbers(), _Double(), _Total(), _Constant()]


def _ctx():
    return StageContext(config=DeshConfig())


_RECORDS = (LogRecord(1.0, "c0-0c0s0n0", "kernel", "hello"),)


class TestDagValidation:
    def test_topological_order(self):
        runner = PipelineRunner(_stages())
        order = runner.order
        assert order.index("numbers") < order.index("double") < order.index(
            "total"
        )
        assert set(order) == {"numbers", "double", "total", "constant"}

    def test_order_is_deterministic(self):
        assert PipelineRunner(_stages()).order == PipelineRunner(_stages()).order

    def test_unknown_dependency_rejected(self):
        bad = _JsonStage("orphan", deps=("missing",))
        with pytest.raises(PipelineError, match="unknown stage"):
            PipelineRunner([bad])

    def test_cycle_rejected(self):
        a = _JsonStage("a", deps=("b",))
        b = _JsonStage("b", deps=("a",))
        with pytest.raises(PipelineError, match="cycle"):
            PipelineRunner([a, b])

    def test_duplicate_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            PipelineRunner([_Numbers(), _Numbers()])


class TestFingerprints:
    def test_deterministic(self):
        fps1 = PipelineRunner(_stages()).fingerprints("d1")
        fps2 = PipelineRunner(_stages()).fingerprints("d1")
        assert fps1 == fps2

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json(
            {"b": 2, "a": 1}
        )
        assert fingerprint_payload({"a": 1, "b": 2}) == fingerprint_payload(
            {"b": 2, "a": 1}
        )

    def test_config_change_invalidates_stage_and_descendants(self):
        base = PipelineRunner(_stages()).fingerprints("d1")
        changed = PipelineRunner(
            [
                _Numbers(),
                _Double(payload={"stage": "double", "k": 2}),
                _Total(),
                _Constant(),
            ]
        ).fingerprints("d1")
        assert changed["numbers"] == base["numbers"]
        assert changed["constant"] == base["constant"]
        assert changed["double"] != base["double"]
        assert changed["total"] != base["total"]

    def test_data_change_invalidates_source_descendants_only(self):
        runner = PipelineRunner(_stages())
        base = runner.fingerprints("d1")
        changed = runner.fingerprints("d2")
        assert changed["constant"] == base["constant"]
        for name in ("numbers", "double", "total"):
            assert changed[name] != base[name]

    def test_record_fingerprint_tracks_content(self):
        r1 = [LogRecord(1.0, "c0-0c0s0n0", "kernel", "hello")]
        r2 = [LogRecord(1.0, "c0-0c0s0n0", "kernel", "world")]
        assert fingerprint_records(r1) == fingerprint_records(list(r1))
        assert fingerprint_records(r1) != fingerprint_records(r2)


class TestRunnerExecution:
    def test_run_without_store(self):
        runner = PipelineRunner(_stages())
        result = runner.run(_ctx())
        assert result.value("total") == [12]
        assert result.cache_hits == []
        assert set(result.cache_misses) == {
            "numbers",
            "double",
            "total",
            "constant",
        }
        assert result.total_seconds >= 0.0

    def test_second_run_hits_cache(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = PipelineRunner(_stages(), store=store).run(
            _ctx(), data_fingerprint="d1"
        )
        stages = _stages()
        second = PipelineRunner(stages, store=store).run(
            _ctx(), data_fingerprint="d1"
        )
        assert first.cache_hits == []
        assert set(second.cache_hits) == {
            "numbers",
            "double",
            "total",
            "constant",
        }
        assert second.value("total") == [12]
        assert all(s.runs == 0 for s in stages)

    def test_plan_reports_cache_state(self, tmp_path):
        store = ArtifactStore(tmp_path)
        runner = PipelineRunner(_stages(), store=store)
        assert all(not p.cached for p in runner.plan("d1"))
        runner.run(_ctx(), data_fingerprint="d1")
        assert all(p.cached for p in runner.plan("d1"))
        # A different data fingerprint leaves only `constant` warm.
        cached = {p.name for p in runner.plan("d2") if p.cached}
        assert cached == {"constant"}

    def test_corrupt_artifact_is_recomputed_and_healed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        runner = PipelineRunner(_stages(), store=store)
        runner.run(_ctx(), data_fingerprint="d1")
        fp = runner.fingerprints("d1")["double"]
        (store.directory("double", fp) / "value.json").write_text("not json{")
        stages = _stages()
        result = PipelineRunner(stages, store=store).run(
            _ctx(), data_fingerprint="d1"
        )
        assert "double" in result.cache_misses
        assert result.value("double") == [2, 4, 6]
        # The re-save healed the artifact for the next run.
        healed = PipelineRunner(_stages(), store=store).run(
            _ctx(), data_fingerprint="d1"
        )
        assert "double" in healed.cache_hits


class TestStageIsolation:
    """Each stage sees only its declared deps, and records only as a source."""

    def test_undeclared_read_of_finished_stage_raises(self):
        # "numbers" runs before "peek" (name order), but "peek" does not
        # declare it: its fingerprint would not chain on "numbers".
        peek = _Peek("peek", reads="numbers")
        runner = PipelineRunner([_Numbers(), peek])
        assert runner.order == ["numbers", "peek"]
        with pytest.raises(PipelineError, match="'numbers'") as info:
            runner.run(_ctx())
        assert "declared deps ()" in str(info.value)

    def test_declared_read_sees_only_its_deps(self):
        peek = _Peek("peek", deps=("double",), reads="double")
        result = PipelineRunner(_stages() + [peek]).run(
            StageContext(config=DeshConfig(), records=_RECORDS)
        )
        assert result.value("peek") == [3]
        assert peek.seen == [("run", {"double": [2, 4, 6]}, ())]

    def test_records_reach_only_source_stages(self):
        source = _Peek("numbers", consumes_source=True)
        derived = _Peek("peek", deps=("numbers",), reads="numbers")
        PipelineRunner([source, derived]).run(
            StageContext(config=DeshConfig(), records=_RECORDS)
        )
        assert source.seen == [("run", {}, _RECORDS)]
        assert derived.seen == [("run", {"numbers": [1]}, ())]

    def test_warm_load_gets_the_same_restricted_context(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ctx = StageContext(config=DeshConfig(), records=_RECORDS)
        PipelineRunner(
            _stages() + [_Peek("peek", deps=("double",), reads="double")],
            store=store,
        ).run(ctx, data_fingerprint="d1")
        peek = _Peek("peek", deps=("double",), reads="double")
        warm = PipelineRunner(_stages() + [peek], store=store).run(
            ctx, data_fingerprint="d1"
        )
        assert "peek" in warm.cache_hits
        assert peek.seen == [("load", {"double": [2, 4, 6]}, ())]

    def test_caller_context_is_left_untouched(self):
        ctx = _ctx()
        PipelineRunner(_stages()).run(ctx)
        assert ctx.inputs == {}


class TestArtifactStore:
    def test_missing_manifest_is_invisible(self, tmp_path):
        store = ArtifactStore(tmp_path)
        directory = store.directory("stage", "f" * 64)
        directory.mkdir(parents=True)
        (directory / "value.json").write_text("[1]")
        assert not store.has("stage", "f" * 64)
        with pytest.raises(ArtifactError, match="no artifact"):
            store.load("stage", "f" * 64, lambda d: None)

    def test_fingerprint_prefix_collision_detected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fp_a = "a" * 16 + "1" * 48
        fp_b = "a" * 16 + "2" * 48
        store.save("stage", fp_a, lambda d: None)
        assert store.has("stage", fp_a)
        assert not store.has("stage", fp_b)

    def test_failed_writer_leaves_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)

        def boom(directory):
            (directory / "partial.json").write_text("[")
            raise RuntimeError("disk on fire")

        with pytest.raises(ArtifactError, match="disk on fire"):
            store.save("stage", "a" * 64, boom)
        assert not store.directory("stage", "a" * 64).exists()
        assert not store.has("stage", "a" * 64)

    def test_invalid_stage_name_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactError):
            store.directory("", "a" * 64)
        with pytest.raises(ArtifactError):
            store.directory("../escape", "a" * 64)

    def test_entries_lists_manifests(self, tmp_path):
        store = ArtifactStore(tmp_path)
        PipelineRunner(_stages(), store=store).run(
            _ctx(), data_fingerprint="d1"
        )
        entries = list(store.entries())
        assert {e["stage"] for e in entries} == {
            "numbers",
            "double",
            "total",
            "constant",
        }
        assert all(len(e["fingerprint"]) == 64 for e in entries)
