"""Tests for atomic checkpoints and bit-identical training resume."""

import json

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigError
from repro.nn import Adam, RMSprop, SequenceRegressor
from repro.resilience import CheckpointManager, pack_fit_state, restore_fit_state


@pytest.fixture
def manager(tmp_path):
    return CheckpointManager(tmp_path / "ckpts")


def _arrays(scale=1.0):
    return {
        "w": np.full((3, 2), scale),
        "b": np.arange(4, dtype=np.float64) * scale,
    }


class TestCheckpointManager:
    def test_save_load_round_trip(self, manager):
        manager.save(1, _arrays(), {"epoch": 1, "note": "first"})
        step, arrays, meta = manager.load_latest()
        assert step == 1
        assert meta["note"] == "first"
        np.testing.assert_array_equal(arrays["w"], _arrays()["w"])

    def test_load_latest_empty_returns_none(self, manager):
        assert manager.load_latest() is None

    def test_latest_wins(self, manager):
        manager.save(1, _arrays(1.0), {"epoch": 1})
        manager.save(2, _arrays(2.0), {"epoch": 2})
        step, arrays, _ = manager.load_latest()
        assert step == 2
        assert arrays["w"][0, 0] == 2.0

    def test_keep_prunes_old_payloads(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in range(1, 5):
            manager.save(step, _arrays(float(step)), {"epoch": step})
        assert manager.steps() == [3, 4]
        kept = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        assert kept == ["ckpt-00000003.npz", "ckpt-00000004.npz"]

    def test_gc_removes_orphaned_payloads_and_tmp_files(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        manager.save(1, _arrays(1.0), {"epoch": 1})
        manager.save(2, _arrays(2.0), {"epoch": 2})
        # Simulate a crash between payload write and manifest update,
        # plus a stale tmp from an interrupted atomic write.
        orphan = tmp_path / "ckpt-00000099.npz"
        orphan.write_bytes(b"orphaned payload")
        stale = tmp_path / "ckpt-00000100.npz.tmp"
        stale.write_bytes(b"half-written")
        removed = manager.gc()
        assert sorted(removed) == ["ckpt-00000099.npz", "ckpt-00000100.npz.tmp"]
        assert not orphan.exists() and not stale.exists()
        # Every live checkpoint survives GC and stays loadable.
        step, arrays, _ = manager.load_latest()
        assert step == 2
        assert arrays["w"][0, 0] == 2.0

    def test_save_runs_gc_automatically(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=1)
        orphan = tmp_path / "ckpt-00000077.npz"
        tmp_path.mkdir(exist_ok=True)
        orphan.write_bytes(b"leftover")
        manager.save(1, _arrays(), {"epoch": 1})
        assert not orphan.exists()
        assert manager.load_latest()[0] == 1

    def test_gc_on_missing_directory_is_noop(self, tmp_path):
        manager = CheckpointManager(tmp_path / "never-created")
        assert manager.gc() == []

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        manager.save(1, _arrays(1.0), {"epoch": 1})
        manager.save(2, _arrays(2.0), {"epoch": 2})
        # Flip bytes in the newest payload; its checksum no longer matches.
        newest = tmp_path / "ckpt-00000002.npz"
        newest.write_bytes(b"corrupted" + newest.read_bytes()[9:])
        step, arrays, _ = manager.load_latest()
        assert step == 1
        assert arrays["w"][0, 0] == 1.0

    def test_all_corrupt_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save(1, _arrays(), {"epoch": 1})
        payload = tmp_path / "ckpt-00000001.npz"
        payload.write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="failed verification"):
            manager.load_latest()

    def test_missing_payload_raises_checkpoint_error(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save(1, _arrays(), {"epoch": 1})
        (tmp_path / "ckpt-00000001.npz").unlink()
        with pytest.raises(CheckpointError):
            manager.load_latest()

    def test_unreadable_manifest_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(1, _arrays(), {"epoch": 1})
        (tmp_path / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="manifest"):
            manager.load_latest()

    def test_no_tmp_files_left_behind(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(1, _arrays(), {"epoch": 1})
        assert not list(tmp_path.glob("*.tmp"))

    def test_manifest_is_json_with_checksums(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(3, _arrays(), {"epoch": 3})
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        (entry,) = manifest["checkpoints"]
        assert entry["step"] == 3
        assert len(entry["sha256"]) == 64

    def test_rejects_bad_keep(self, tmp_path):
        with pytest.raises(ConfigError):
            CheckpointManager(tmp_path, keep=0)

    def test_rejects_negative_step(self, manager):
        with pytest.raises(CheckpointError):
            manager.save(-1, _arrays(), {})


class TestFitStatePacking:
    def _model_and_opt(self, seed=3):
        model = SequenceRegressor(
            input_dim=2, hidden_size=8, output_dim=2, seed=seed
        )
        return model, Adam(learning_rate=0.01)

    def _data(self, n=64):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 5, 2))
        y = rng.normal(size=(n, 2))
        return x, y

    def test_round_trip_restores_params_and_slots(self):
        model, opt = self._model_and_opt()
        x, y = self._data()
        model.fit(x, y, epochs=2, optimizer=opt, rng=np.random.default_rng(1))
        rng = np.random.default_rng(5)
        arrays, meta = pack_fit_state(model.params(), opt, rng, epoch=2)

        other, opt2 = self._model_and_opt(seed=99)
        other.fit(x, y, epochs=1, optimizer=opt2, rng=np.random.default_rng(2))
        rng2 = np.random.default_rng(77)
        epoch = restore_fit_state(arrays, meta, other.params(), opt2, rng2)
        assert epoch == 2
        for key, arr in model.params().items():
            np.testing.assert_array_equal(arr, other.params()[key])
        assert rng2.bit_generator.state == rng.bit_generator.state
        assert opt2.learning_rate == opt.learning_rate

    def test_missing_param_raises(self):
        model, opt = self._model_and_opt()
        arrays, meta = pack_fit_state(
            model.params(), opt, np.random.default_rng(0), epoch=1
        )
        del arrays["param::" + next(iter(model.params()))]
        with pytest.raises(CheckpointError, match="missing parameter"):
            restore_fit_state(
                arrays, meta, model.params(), opt, np.random.default_rng(0)
            )

    def test_shape_mismatch_raises(self):
        model, opt = self._model_and_opt()
        arrays, meta = pack_fit_state(
            model.params(), opt, np.random.default_rng(0), epoch=1
        )
        key = "param::" + next(iter(model.params()))
        arrays[key] = np.zeros((1, 1))
        with pytest.raises(CheckpointError, match="shape mismatch"):
            restore_fit_state(
                arrays, meta, model.params(), opt, np.random.default_rng(0)
            )

    def test_missing_generator_state_raises(self):
        model, opt = self._model_and_opt()
        arrays, meta = pack_fit_state(
            model.params(), opt, np.random.default_rng(0), epoch=1
        )
        del meta["rng_state"]
        with pytest.raises(CheckpointError, match="generator state"):
            restore_fit_state(
                arrays, meta, model.params(), opt, np.random.default_rng(0)
            )


class TestBitIdenticalResume:
    """The acceptance criterion: kill after epoch k, resume, same weights."""

    def _data(self, n=96):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(n, 5, 2))
        y = rng.normal(size=(n, 2))
        return x, y

    def _fresh(self):
        model = SequenceRegressor(input_dim=2, hidden_size=8, output_dim=2, seed=3)
        return model, RMSprop(learning_rate=0.003)

    def test_model_fit_resumes_bit_identically(self, tmp_path):
        x, y = self._data()

        straight, opt = self._fresh()
        straight.fit(x, y, epochs=6, optimizer=opt, checkpoint=None)

        manager = CheckpointManager(tmp_path / "ck")
        killed, opt1 = self._fresh()
        killed.fit(x, y, epochs=3, optimizer=opt1, checkpoint=manager)

        resumed, opt2 = self._fresh()  # fresh weights, fresh optimizer
        resumed.fit(x, y, epochs=6, optimizer=opt2, checkpoint=manager)

        for key, arr in straight.params().items():
            np.testing.assert_array_equal(arr, resumed.params()[key])
        assert resumed.history == straight.history


class TestDeshCheckpointDir:
    def test_fit_with_checkpoint_dir_writes_phase_checkpoints(
        self, small_log, mini_config, tmp_path
    ):
        from repro.core import Desh

        train, _ = small_log.split(0.2)
        ckdir = tmp_path / "ckpts"
        Desh(mini_config).fit(
            list(train.records), train_classifier=False, checkpoint_dir=ckdir
        )
        manifest = ckdir / "phase2" / "MANIFEST.json"
        assert manifest.exists()
        entries = json.loads(manifest.read_text())["checkpoints"]
        assert entries
