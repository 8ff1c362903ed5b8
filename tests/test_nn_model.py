"""Tests for the sequence classifier and regressor models."""

import numpy as np
import pytest

from repro.errors import NotFittedError, SerializationError, ShapeError, TrainingError
from repro.nn.data import sliding_windows, sliding_windows_continuous
from repro.nn.model import SequenceClassifier, SequenceRegressor


@pytest.fixture(scope="module")
def cyclic_data():
    """A deterministic cyclic phrase sequence the model must memorize."""
    seq = np.array(list(range(8)) * 40)
    return sliding_windows(seq, history=8, steps=3)


@pytest.fixture(scope="module")
def trained_classifier(cyclic_data):
    x, y = cyclic_data
    model = SequenceClassifier(8, embed_dim=8, hidden_size=16, steps=3, seed=1)
    model.fit(x, y, epochs=6, batch_size=32)
    return model


@pytest.fixture(scope="module")
def sine_data():
    t = np.linspace(0, 12 * np.pi, 800)
    sig = np.stack([np.sin(t), np.cos(t)], axis=1)
    x, y = sliding_windows_continuous(sig, history=5, steps=1)
    return x, y[:, 0, :]


@pytest.fixture(scope="module")
def trained_regressor(sine_data):
    x, y = sine_data
    model = SequenceRegressor(2, hidden_size=16, seed=2)
    model.fit(x, y, epochs=4, batch_size=64)
    return model


class TestSequenceClassifier:
    def test_learns_cyclic_sequence(self, trained_classifier, cyclic_data):
        x, y = cyclic_data
        assert trained_classifier.accuracy(x, y) > 0.95

    def test_loss_decreases(self, trained_classifier):
        assert trained_classifier.history[-1] < trained_classifier.history[0]

    def test_predict_logits_shape(self, trained_classifier, cyclic_data):
        x, _ = cyclic_data
        assert trained_classifier.predict_logits(x[:5]).shape == (5, 3, 8)

    def test_predict_next_shape(self, trained_classifier, cyclic_data):
        x, _ = cyclic_data
        assert trained_classifier.predict_next(x[:5]).shape == (5, 3)

    def test_topk_contains_argmax(self, trained_classifier, cyclic_data):
        x, _ = cyclic_data
        best = trained_classifier.predict_next(x[:10])
        top3 = trained_classifier.predict_topk(x[:10], 3)
        for i in range(10):
            for s in range(3):
                assert best[i, s] in top3[i, s]

    def test_autoregressive_matches_cycle(self, trained_classifier):
        """Feeding predictions back continues the memorized cycle."""
        window = np.array([[0, 1, 2, 3, 4, 5, 6, 7]])
        preds = trained_classifier.predict_autoregressive(window, 4)
        assert preds.tolist() == [[0, 1, 2, 3]]

    def test_autoregressive_shape_and_validation(self, trained_classifier):
        window = np.array([[0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]])
        assert trained_classifier.predict_autoregressive(window, 2).shape == (2, 2)
        with pytest.raises(ShapeError):
            trained_classifier.predict_autoregressive(window, 0)
        with pytest.raises(ShapeError):
            trained_classifier.predict_autoregressive(np.array([0, 1]), 1)

    def test_autoregressive_before_fit_raises(self):
        model = SequenceClassifier(8, steps=1)
        with pytest.raises(NotFittedError):
            model.predict_autoregressive(np.zeros((1, 4), dtype=int), 2)

    def test_topk_bounds(self, trained_classifier, cyclic_data):
        x, _ = cyclic_data
        with pytest.raises(ShapeError):
            trained_classifier.predict_topk(x[:1], 0)
        with pytest.raises(ShapeError):
            trained_classifier.predict_topk(x[:1], 9)

    def test_predict_before_fit_raises(self):
        model = SequenceClassifier(8, steps=1)
        with pytest.raises(NotFittedError):
            model.predict_logits(np.zeros((1, 4), dtype=int))

    def test_fit_rejects_bad_shapes(self):
        model = SequenceClassifier(8, steps=2)
        with pytest.raises(ShapeError):
            model.fit(np.zeros((4, 3), dtype=int), np.zeros((4, 3), dtype=int))

    def test_fit_rejects_empty(self):
        model = SequenceClassifier(8, steps=1)
        with pytest.raises(TrainingError):
            model.fit(np.zeros((0, 3), dtype=int), np.zeros((0, 1), dtype=int))

    def test_rejects_tiny_vocab(self):
        with pytest.raises(ShapeError):
            SequenceClassifier(1)

    def test_pretrained_embeddings_used(self):
        vecs = np.full((8, 4), 0.25)
        model = SequenceClassifier(8, embed_dim=4, pretrained_embeddings=vecs)
        assert np.array_equal(model.embedding.W, vecs)

    def test_save_load_round_trip(self, trained_classifier, cyclic_data, tmp_path):
        x, _ = cyclic_data
        path = tmp_path / "clf.npz"
        trained_classifier.save(path)
        loaded = SequenceClassifier.load(path)
        assert np.allclose(
            loaded.predict_logits(x[:4]), trained_classifier.predict_logits(x[:4])
        )

    def test_load_wrong_kind_raises(self, trained_regressor, tmp_path):
        path = tmp_path / "reg.npz"
        trained_regressor.save(path)
        with pytest.raises(SerializationError):
            SequenceClassifier.load(path)

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            SequenceClassifier.load(tmp_path / "nope.npz")


class TestSequenceRegressor:
    def test_learns_sine(self, trained_regressor, sine_data):
        x, y = sine_data
        pred = trained_regressor.predict(x[:100])
        assert np.mean((pred - y[:100]) ** 2) < 0.01

    def test_loss_decreases(self, trained_regressor):
        assert trained_regressor.history[-1] < trained_regressor.history[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            SequenceRegressor(2).predict(np.zeros((1, 5, 2)))

    def test_forward_rejects_wrong_dim(self, trained_regressor):
        with pytest.raises(ShapeError):
            trained_regressor.forward(np.zeros((2, 5, 3)))

    def test_separate_output_dim(self):
        model = SequenceRegressor(4, output_dim=2, hidden_size=8)
        x = np.random.default_rng(0).standard_normal((3, 5, 4))
        assert model.forward(x).shape == (3, 2)

    def test_save_load_round_trip(self, trained_regressor, sine_data, tmp_path):
        x, _ = sine_data
        path = tmp_path / "reg.npz"
        trained_regressor.save(path)
        loaded = SequenceRegressor.load(path)
        assert np.allclose(loaded.predict(x[:4]), trained_regressor.predict(x[:4]))

    def test_fit_rejects_bad_target_shape(self):
        model = SequenceRegressor(2)
        with pytest.raises(ShapeError):
            model.fit(np.zeros((4, 5, 2)), np.zeros((4, 3)))
