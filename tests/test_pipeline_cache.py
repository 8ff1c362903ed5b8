"""Cache correctness of the staged Desh pipeline.

The core property: a config edit invalidates exactly the edited stage
and its descendants — nothing more, nothing less — and a warm re-run
serves everything else from the artifact store bit-identically.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    DeshConfig,
    EmbeddingConfig,
    Phase1Config,
    Phase2Config,
    Phase3Config,
)
from repro.core import Desh
from repro.pipeline import DeshPipeline, assemble_model, fingerprint_records

ALL_STAGES = {
    "parse",
    "embeddings",
    "phase1",
    "chains",
    "phase2",
    "classifier",
    "phase3",
}


@pytest.fixture(scope="module")
def pipe_config() -> DeshConfig:
    return DeshConfig(
        embedding=EmbeddingConfig(dim=12, epochs=1),
        phase1=Phase1Config(hidden_size=16, epochs=1, batch_size=128),
        phase2=Phase2Config(hidden_size=32, epochs=40, learning_rate=0.01),
        phase3=Phase3Config(),
        seed=7,
    )


@pytest.fixture(scope="module")
def train_records(small_log):
    train, _ = small_log.split(0.3)
    return list(train.records)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pipeline-cache")


@pytest.fixture(scope="module")
def cold_run(pipe_config, train_records, cache_dir):
    """One cold pipeline run that fills the artifact store."""
    return DeshPipeline(pipe_config, cache_dir=cache_dir).run(train_records)


def _perturb(config: DeshConfig, field: str, sub: dict) -> DeshConfig:
    return dataclasses.replace(
        config, **{field: dataclasses.replace(getattr(config, field), **sub)}
    )


# Each row: (label, config-perturbation, exact set of stale stages).
PERTURBATIONS = [
    (
        "embedding-dim",
        lambda c: _perturb(c, "embedding", {"dim": 8}),
        {"embeddings", "phase1"},
    ),
    (
        "phase1-hidden",
        lambda c: _perturb(c, "phase1", {"hidden_size": 24}),
        {"phase1"},
    ),
    (
        "phase2-lr",
        lambda c: _perturb(c, "phase2", {"learning_rate": 0.02}),
        {"phase2", "phase3"},
    ),
    (
        "phase3-threshold",
        lambda c: _perturb(c, "phase3", {"mse_threshold": 0.5}),
        {"phase3"},
    ),
    (
        "phase2-lookback",  # drives the chain extractor AND the episode gap
        lambda c: _perturb(c, "phase2", {"max_lead_seconds": 1800.0}),
        {"chains", "classifier", "phase2", "phase3"},
    ),
    (
        "seed",
        lambda c: dataclasses.replace(c, seed=c.seed + 1),
        {"embeddings", "phase1", "phase2", "phase3"},
    ),
]


class TestSelectiveInvalidation:
    @pytest.mark.parametrize(
        "label, perturb, stale", PERTURBATIONS, ids=[p[0] for p in PERTURBATIONS]
    )
    def test_config_edit_invalidates_exact_descendants(
        self, label, perturb, stale, pipe_config, train_records, cache_dir, cold_run
    ):
        pipe = DeshPipeline(perturb(pipe_config), cache_dir=cache_dir)
        plan = pipe.runner.plan(pipe.data_fingerprint(train_records))
        assert {p.name for p in plan if not p.cached} == stale
        assert {p.name for p in plan if p.cached} == ALL_STAGES - stale

    def test_unchanged_config_is_fully_cached(
        self, pipe_config, train_records, cache_dir, cold_run
    ):
        pipe = DeshPipeline(pipe_config, cache_dir=cache_dir)
        plan = pipe.runner.plan(pipe.data_fingerprint(train_records))
        assert all(p.cached for p in plan)

    def test_data_change_invalidates_everything(
        self, pipe_config, train_records, cache_dir, cold_run
    ):
        pipe = DeshPipeline(pipe_config, cache_dir=cache_dir)
        plan = pipe.runner.plan(fingerprint_records(train_records[:500]))
        assert not any(p.cached for p in plan)


class TestWarmExecution:
    def test_cold_run_misses_everything(self, cold_run):
        assert set(cold_run.cache_misses) == ALL_STAGES
        assert cold_run.cache_hits == []

    def test_phase2_edit_reruns_only_phase2_and_phase3(
        self, pipe_config, train_records, cache_dir, cold_run
    ):
        """The acceptance criterion: a Phase-2 edit skips parse/phase1/chains."""
        edited = _perturb(pipe_config, "phase2", {"learning_rate": 0.02})
        result = DeshPipeline(edited, cache_dir=cache_dir).run(train_records)
        assert set(result.cache_misses) == {"phase2", "phase3"}
        assert set(result.cache_hits) == ALL_STAGES - {"phase2", "phase3"}
        # The assembled model is complete and usable.
        model = assemble_model(edited, result)
        assert model.num_chains > 0
        assert model.phase2.regressor is not None

    def test_warm_refit_is_bit_identical(
        self, pipe_config, train_records, cache_dir, cold_run, test_split
    ):
        warm = DeshPipeline(pipe_config, cache_dir=cache_dir).run(train_records)
        assert warm.cache_misses == []
        assert set(warm.cache_hits) == ALL_STAGES
        cold_model = assemble_model(pipe_config, cold_run)
        warm_model = assemble_model(pipe_config, warm)
        records = list(test_split.records)
        cold_warn = cold_model.warn(records)
        warm_warn = warm_model.warn(records)
        assert [
            (w.node, w.decision_time, w.lead_seconds, w.mse, w.likely_class)
            for w in cold_warn
        ] == [
            (w.node, w.decision_time, w.lead_seconds, w.mse, w.likely_class)
            for w in warm_warn
        ]

    def test_fit_facade_uses_cache(
        self, pipe_config, train_records, cache_dir, cold_run
    ):
        """``Desh.fit(cache_dir=...)`` rides the same artifact store."""
        model = Desh(pipe_config).fit(train_records, cache_dir=str(cache_dir))
        assert model.num_chains > 0
        assert model.phase1.classifier is not None

    def test_warm_fit_saves_cold_vocabulary(
        self, pipe_config, train_records, cache_dir, cold_run, tmp_path
    ):
        """A cache-loaded parse stage keeps the mined phrase counts."""
        cold = assemble_model(pipe_config, cold_run)
        warm = Desh(pipe_config).fit(train_records, cache_dir=str(cache_dir))
        cold.save(tmp_path / "cold")
        warm.save(tmp_path / "warm")
        assert (tmp_path / "warm" / "vocab.json").read_bytes() == (
            tmp_path / "cold" / "vocab.json"
        ).read_bytes()
