"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, save_model
from repro.io import load_ground_truth, read_records, write_log
from repro.pipeline import load_model


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--system", "M2", "--seed", "5", "--out", "x.log"]
        )
        assert args.system == "M2"
        assert args.seed == 5

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestGenerateCommand:
    def test_writes_log_and_ground_truth(self, tmp_path):
        out = tmp_path / "m4.log.gz"
        gt = tmp_path / "m4.json"
        code = main(
            [
                "generate",
                "--system",
                "M4",
                "--seed",
                "3",
                "--out",
                str(out),
                "--ground-truth",
                str(gt),
            ]
        )
        assert code == 0
        records = list(read_records(out))
        assert records
        truth = load_ground_truth(gt)
        assert truth.failures


class TestModelPersistence:
    def test_save_and_load_predictor(self, trained_model, tmp_path):
        save_model(trained_model, tmp_path / "model")
        assert (tmp_path / "model" / "phase2.npz").exists()
        assert (tmp_path / "model" / "vocab.json").exists()
        meta = json.loads((tmp_path / "model" / "meta.json").read_text())
        assert meta["vocab_size"] == trained_model.phase2.scaler.vocab_size

        predictor = load_model(tmp_path / "model").predictor
        assert predictor.scaler.max_lead_seconds == (
            trained_model.phase2.scaler.max_lead_seconds
        )

    def test_loaded_predictor_matches_original(
        self, trained_model, test_split, tmp_path
    ):
        """Verdicts from the persisted model agree with the live one."""
        save_model(trained_model, tmp_path / "model")
        predictor = load_model(tmp_path / "model").predictor
        parsed = trained_model.parse(test_split.records)
        sequences = [
            s for s in parsed.by_node().values() if s.node is not None
        ]
        live = trained_model.predictor.predict_sequences(sequences)
        loaded = predictor.predict_sequences(sequences)
        assert [(v.flagged, round(v.mse, 9)) for v in live] == [
            (v.flagged, round(v.mse, 9)) for v in loaded
        ]

    def test_predict_rejects_legacy_model_dir(
        self, trained_model, small_log, tmp_path, capsys
    ):
        """A format-1 directory (regressor + vocab only) is refused."""
        directory = tmp_path / "legacy"
        directory.mkdir()
        trained_model.phase2.regressor.save(directory / "phase2.npz")
        trained_model.parser.vocab.save(directory / "vocab.json")
        scaler = trained_model.phase2.scaler
        (directory / "meta.json").write_text(
            json.dumps(
                {
                    "max_lead_seconds": scaler.max_lead_seconds,
                    "vocab_size": scaler.vocab_size,
                    "id_scale": scaler.id_scale,
                }
            )
        )
        log_path = tmp_path / "test.log.gz"
        write_log(log_path, small_log.records[:50])
        code = main(
            ["predict", "--log", str(log_path), "--model-dir", str(directory)]
        )
        assert code != 0
        assert "legacy" in capsys.readouterr().err


class TestTrainPredictRoundTrip:
    def test_train_then_predict(self, small_log, tmp_path, capsys, monkeypatch):
        """The CLI train/predict flow runs end to end on a real file."""
        log_path = tmp_path / "train.log.gz"
        train, test = small_log.split(0.3)
        write_log(log_path, train.records)
        test_path = tmp_path / "test.log.gz"
        write_log(test_path, test.records)

        # Speed: shrink the default config for the CLI invocation.
        from repro import config as config_mod
        from repro.config import (
            DeshConfig,
            EmbeddingConfig,
            Phase1Config,
            Phase2Config,
        )

        small_cfg = DeshConfig(
            embedding=EmbeddingConfig(dim=12, epochs=1),
            phase1=Phase1Config(hidden_size=16, epochs=1, batch_size=128),
            phase2=Phase2Config(hidden_size=32, epochs=120, learning_rate=0.01),
            seed=7,
        )
        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "DeshConfig", lambda **kw: small_cfg)

        assert (
            main(
                [
                    "train",
                    "--log",
                    str(log_path),
                    "--model-dir",
                    str(tmp_path / "model"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "predict",
                    "--log",
                    str(test_path),
                    "--model-dir",
                    str(tmp_path / "model"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "is expected to fail" in out

    def test_train_rejects_bad_fraction(self, small_log, tmp_path):
        log_path = tmp_path / "t.log"
        write_log(log_path, small_log.records[:100])
        code = main(
            [
                "train",
                "--log",
                str(log_path),
                "--fraction",
                "2.0",
                "--model-dir",
                str(tmp_path / "m"),
            ]
        )
        assert code == 2


class TestTraceCommand:
    def test_unknown_subcommand_exits_nonzero(self, capsys):
        assert main(["trace", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown subcommand" in err
        assert "bogus" in err

    def test_missing_subcommand_exits_nonzero(self, capsys):
        assert main(["trace"]) == 2
        assert "needs a subcommand" in capsys.readouterr().err

    def test_observability_commands_do_not_nest(self, capsys):
        assert main(["trace", "metrics", "generate"]) == 2
        assert "cannot nest" in capsys.readouterr().err
        assert main(["metrics", "trace", "generate"]) == 2
        assert "cannot nest" in capsys.readouterr().err

    def test_export_path_collision_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "same.json"
        code = main(
            [
                "trace",
                "--trace-out",
                str(out),
                "--metrics-out",
                str(out),
                "generate",
                "--out",
                str(tmp_path / "x.log"),
            ]
        )
        assert code == 2
        assert "collide" in capsys.readouterr().err
        assert not out.exists()  # nothing ran, nothing written

    def test_export_path_must_not_be_a_directory(self, tmp_path, capsys):
        code = main(
            [
                "trace",
                "--trace-out",
                str(tmp_path),
                "generate",
                "--out",
                str(tmp_path / "x.log"),
            ]
        )
        assert code == 2
        assert "existing directory" in capsys.readouterr().err

    def test_traced_generate_prints_span_tree(self, tmp_path, capsys):
        spans_path = tmp_path / "spans.jsonl"
        code = main(
            [
                "trace",
                "--trace-out",
                str(spans_path),
                "generate",
                "--system",
                "M1",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "m1.log.gz"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro.generate" in out
        assert "ms)" in out
        rows = [
            json.loads(line)
            for line in spans_path.read_text().splitlines()
        ]
        assert rows[0]["name"] == "repro.generate"


class TestMetricsCommand:
    def test_unknown_subcommand_exits_nonzero(self, capsys):
        assert main(["metrics", "bogus"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_metrics_json_snapshot_printed(self, tmp_path, capsys):
        code = main(
            [
                "metrics",
                "generate",
                "--system",
                "M1",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "m1.log.gz"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # generate records no metrics: the snapshot is an empty object
        assert out.rstrip().endswith("{}")

    def test_metrics_prom_export_to_file(
        self, small_log, tmp_path, capsys, monkeypatch
    ):
        log_path = tmp_path / "t.log"
        write_log(log_path, small_log.records[: len(small_log.records) // 2])
        snap_path = tmp_path / "metrics.prom"
        # Build a model quickly, then measure predict (the instrumented
        # ingest/parse/phase3 path) through the metrics wrapper.
        from repro.config import (
            DeshConfig,
            EmbeddingConfig,
            Phase1Config,
            Phase2Config,
        )

        small_cfg = DeshConfig(
            embedding=EmbeddingConfig(dim=12, epochs=1),
            phase1=Phase1Config(hidden_size=16, epochs=1, batch_size=128),
            phase2=Phase2Config(hidden_size=16, epochs=20, learning_rate=0.01),
            seed=7,
        )
        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "DeshConfig", lambda **kw: small_cfg)
        assert (
            main(
                [
                    "train",
                    "--log",
                    str(log_path),
                    "--no-cache",
                    "--model-dir",
                    str(tmp_path / "model"),
                ]
            )
            == 0
        )
        code = main(
            [
                "metrics",
                "--format",
                "prom",
                "--out",
                str(snap_path),
                "predict",
                "--log",
                str(log_path),
                "--model-dir",
                str(tmp_path / "model"),
            ]
        )
        assert code == 0
        text = snap_path.read_text()
        assert "# TYPE repro_phase3_episodes counter" in text
        assert "# TYPE repro_phase3_prediction_ms histogram" in text
        assert "wrote metrics snapshot" in capsys.readouterr().err
