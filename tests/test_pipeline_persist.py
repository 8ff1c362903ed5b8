"""Full-model persistence and cached inference-side parsing.

The headline regression: ``save``/``load`` must round-trip a trained
model to identical ``warn()`` output — the legacy persistence kept only
the regressor + vocabulary and silently dropped the classifier, chains
and embeddings.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import evaluate_model
from repro.cli import load_predictor, save_model
from repro.config import DeshConfig
from repro.core.desh import DeshModel
from repro.errors import SerializationError
from repro.pipeline import ArtifactStore, load_model
from repro.resilience import FAULT_PROFILES, chaos_evaluation


def _warn_tuples(model, records):
    return [
        (w.node, w.decision_time, w.lead_seconds, w.mse, w.likely_class)
        for w in model.warn(records)
    ]


class TestFullModelRoundTrip:
    def test_warn_output_identical_after_reload(
        self, trained_model, test_split, tmp_path
    ):
        trained_model.save(tmp_path / "model")
        loaded = DeshModel.load(tmp_path / "model")
        records = list(test_split.records)
        assert _warn_tuples(trained_model, records) == _warn_tuples(
            loaded, records
        )

    def test_reloaded_components_complete(self, trained_model, tmp_path):
        trained_model.save(tmp_path / "model")
        loaded = DeshModel.load(tmp_path / "model")
        assert loaded.num_chains == trained_model.num_chains
        assert loaded.num_phrases == trained_model.num_phrases
        assert loaded.config == trained_model.config
        assert (loaded.classifier is None) == (trained_model.classifier is None)
        assert (
            loaded.phase1.embedder.state_arrays()["w_in"]
            == trained_model.phase1.embedder.state_arrays()["w_in"]
        ).all()
        assert loaded.phase2.losses == pytest.approx(trained_model.phase2.losses)

    def test_reloaded_model_supports_online_update(
        self, trained_model, test_split, tmp_path
    ):
        trained_model.save(tmp_path / "model")
        loaded = DeshModel.load(tmp_path / "model")
        before = loaded.num_chains
        learned = loaded.update(list(test_split.records), epochs=1)
        assert learned > 0
        assert loaded.num_chains == before + learned

    def test_cli_save_model_writes_legacy_superset(
        self, trained_model, tmp_path
    ):
        """New directories keep every legacy file + key, so old readers work."""
        save_model(trained_model, tmp_path / "model")
        meta = json.loads((tmp_path / "model" / "meta.json").read_text())
        for key in (
            "max_lead_seconds",
            "vocab_size",
            "id_scale",
            "num_chains",
            "config_seed",
        ):
            assert key in meta
        parser, predictor = load_predictor(
            tmp_path / "model", trained_model.config
        )
        assert parser.num_phrases == trained_model.num_phrases
        assert (
            predictor.scaler.max_lead_seconds
            == trained_model.phase2.scaler.max_lead_seconds
        )

    def test_legacy_directory_rejected_with_clear_error(
        self, trained_model, tmp_path
    ):
        """Pre-pipeline (format-1) directories fail loudly, not lossily."""
        directory = tmp_path / "legacy"
        directory.mkdir()
        trained_model.phase2.regressor.save(directory / "phase2.npz")
        trained_model.parser.vocab.save(directory / "vocab.json")
        (directory / "meta.json").write_text(
            json.dumps(
                {
                    "max_lead_seconds": 1.0,
                    "vocab_size": 2,
                    "id_scale": 1.0,
                    "num_chains": 0,
                    "config_seed": 0,
                }
            )
        )
        with pytest.raises(SerializationError, match="legacy"):
            load_model(directory)

    def test_unreadable_metadata_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="metadata"):
            load_model(tmp_path)

    @pytest.mark.parametrize("name", ["lstm-v9-typo", "attention"])
    def test_garbled_model_name_rejected_naming_registry(
        self, trained_model, tmp_path, name
    ):
        """A corrupt or retired manifest model name is a ConfigError."""
        from repro.errors import ConfigError
        from repro.nn import registered_models

        directory = tmp_path / "garbled"
        save_model(trained_model, directory)
        meta = json.loads((directory / "meta.json").read_text())
        meta["model"] = name
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ConfigError) as exc:
            load_model(directory)
        for name in registered_models():
            assert name in str(exc.value)


class TestCachedEvaluation:
    def test_evaluate_model_caches_encoded_test_stream(
        self, trained_model, test_split, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        records = list(test_split.records)
        first = evaluate_model(
            trained_model, records, test_split.ground_truth, store=store
        )
        assert any(e["stage"] == "encode" for e in store.entries())
        second = evaluate_model(
            trained_model, records, test_split.ground_truth, store=store
        )
        assert first.counts == second.counts
        # And matches the uncached path exactly.
        uncached = evaluate_model(
            trained_model, records, test_split.ground_truth, store=None
        )
        assert first.counts == uncached.counts

    def test_corrupt_encode_artifact_is_reencoded(
        self, trained_model, test_split, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        records = list(test_split.records)
        first = evaluate_model(
            trained_model, records, test_split.ground_truth, store=store
        )
        for entry in store.entries():
            if entry["stage"] == "encode":
                from pathlib import Path

                (Path(entry["path"]) / "events.npz").write_bytes(b"garbage")
        again = evaluate_model(
            trained_model, records, test_split.ground_truth, store=store
        )
        assert first.counts == again.counts

    def test_chaos_evaluation_routes_through_store(
        self, trained_model, test_split, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        records = list(test_split.records)
        report = chaos_evaluation(
            trained_model,
            records,
            test_split.ground_truth,
            FAULT_PROFILES["mild"],
            seed=1,
            store=store,
        )
        assert report.lines_accounted
        encode_entries = [
            e for e in store.entries() if e["stage"] == "encode"
        ]
        # Clean + post-ingest chaotic streams were both cached.
        assert len(encode_entries) == 2
        # Re-running the same profile serves both parses from cache and
        # reproduces the metrics exactly.
        again = chaos_evaluation(
            trained_model,
            records,
            test_split.ground_truth,
            FAULT_PROFILES["mild"],
            seed=1,
            store=store,
        )
        assert again.clean.counts == report.clean.counts
        assert again.chaotic.counts == report.chaotic.counts
