"""Tests for the batch-major inference core.

The load-bearing property is *bit-identity*: a window scored inside any
batch, under any chunking, equals the same window scored alone — exact
float equality, not allclose.  The monitor's batched flush and the
phase-3 batched scorer both lean on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deltas import LeadTimeScaler
from repro.core.phase2 import pad_vectors
from repro.errors import NotFittedError, ShapeError
from repro.nn import BatchedScorer
from repro.nn.data import sliding_windows_continuous
from repro.nn.model import SequenceRegressor

VOCAB = 40
HISTORY = 5


def _regressor(seed: int = 3) -> SequenceRegressor:
    model = SequenceRegressor(2, hidden_size=16, num_layers=2, seed=seed)
    model._fitted = True  # random weights: bit-identity is value-free
    return model


def _scorer(model: SequenceRegressor) -> BatchedScorer:
    scaler = LeadTimeScaler(max_lead_seconds=600.0, vocab_size=VOCAB)
    return BatchedScorer(model, scaler, history=HISTORY)


# One shared instance: hypothesis examples must not pay model setup.
_MODEL = _regressor()
_SCORER = _scorer(_MODEL)


def _random_chain(rng: np.random.Generator, length: int):
    gaps = rng.uniform(0.0, 120.0, size=length)
    timestamps = np.cumsum(gaps)
    phrase_ids = rng.integers(0, VOCAB, size=length)
    return timestamps, phrase_ids


class TestKernelBitIdentity:
    @given(
        # Length >= 2 mirrors phase-3's min_chain_events floor: row-bit-
        # independence is guaranteed for batches of >= 2 rows (a 1-row
        # GEMM takes a different BLAS kernel), and no scored unit ever
        # produces fewer than 2 windows.
        lengths=st.lists(st.integers(2, 12), min_size=1, max_size=8),
        chunk=st.integers(2, 64),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_batched_equals_sequential(self, lengths, chunk, seed):
        """Ragged units stacked into one chunked batch score bit-equal."""
        rng = np.random.default_rng(seed)
        stacks = []
        for length in lengths:
            ts, ids = _random_chain(rng, length)
            x, _, _ = _SCORER.chain_matrix(ts, ids)
            stacks.append(x)
        stacked = np.concatenate(stacks, axis=0)
        batched = _SCORER.predict_batch(stacked, chunk=chunk)
        offset = 0
        for x in stacks:
            alone = _SCORER.predict_batch(x)
            assert np.array_equal(batched[offset : offset + len(x)], alone)
            offset += len(x)

    def test_predict_matches_training_forward_closely(self):
        """The inference kernel is the same function, modulo 1-2 ulp."""
        rng = np.random.default_rng(1)
        x = rng.random((16, HISTORY, 2))
        np.testing.assert_allclose(
            _MODEL.predict(x), _MODEL.forward(x), rtol=1e-12
        )

    def test_round_trip_preserves_bit_identity(self, tmp_path):
        """Save/load the regressor: batched scoring stays bit-equal."""
        path = tmp_path / "regressor.npz"
        _MODEL.save(path)
        loaded = SequenceRegressor.load(path)
        scorer = _scorer(loaded)
        rng = np.random.default_rng(5)
        ts, ids = _random_chain(rng, 9)
        x, _, _ = _SCORER.chain_matrix(ts, ids)
        assert np.array_equal(
            scorer.predict_batch(x), _SCORER.predict_batch(x)
        )
        stacked = np.concatenate([x, x, x], axis=0)
        batched = scorer.predict_batch(stacked, chunk=4)
        assert np.array_equal(batched[: len(x)], scorer.predict_batch(x))


class TestChainMatrix:
    @given(
        length=st.integers(1, 20),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_offline_episode_windows(self, length, seed):
        """The cached encoding is bit-equal to the reference pipeline:
        ``encode_chain`` -> ``pad_vectors`` -> continuous windowing."""
        rng = np.random.default_rng(seed)
        ts, ids = _random_chain(rng, length)
        x, y, pad = _SCORER.chain_matrix(ts, ids)
        vectors = _SCORER.scaler.encode_chain(ts, ids)
        padded = pad_vectors(vectors, len(vectors) + HISTORY)
        x_ref, y_ref = sliding_windows_continuous(padded, HISTORY, 1)
        assert pad == len(padded) - len(vectors)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(y, y_ref[:, 0, :])

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ShapeError, match="non-decreasing"):
            _SCORER.chain_matrix(
                np.array([2.0, 1.0]), np.array([0, 1], dtype=np.int64)
            )

    def test_rejects_out_of_vocab_ids(self):
        with pytest.raises(ShapeError, match="vocabulary"):
            _SCORER.chain_matrix(
                np.array([1.0, 2.0]), np.array([0, VOCAB], dtype=np.int64)
            )

    def test_rejects_mismatched_or_empty_chains(self):
        with pytest.raises(ShapeError, match="non-empty"):
            _SCORER.chain_matrix(
                np.array([1.0, 2.0]), np.array([0], dtype=np.int64)
            )
        with pytest.raises(ShapeError, match="non-empty"):
            _SCORER.chain_matrix(np.array([]), np.array([], dtype=np.int64))


class TestChunking:
    def test_chunk_bounds_never_isolate_one_row(self):
        for total in range(0, 40):
            for chunk in range(2, 9):
                bounds = BatchedScorer._chunk_bounds(total, chunk)
                assert sum(end - start for start, end in bounds) == total
                if total >= 2:
                    assert all(end - start >= 2 for start, end in bounds)
                # Contiguous, ordered cover.
                for (_, end), (start, _) in zip(bounds, bounds[1:]):
                    assert end == start

    def test_chunked_equals_unchunked(self):
        rng = np.random.default_rng(2)
        x = rng.random((37, HISTORY, 2))
        whole = _SCORER.predict_batch(x)
        for chunk in (2, 3, 8, 64):
            assert np.array_equal(
                _SCORER.predict_batch(x, chunk=chunk), whole
            )

    def test_chunk_below_two_rejected(self):
        rng = np.random.default_rng(2)
        x = rng.random((4, HISTORY, 2))
        with pytest.raises(ShapeError):
            _SCORER.predict_batch(x, chunk=1)


class TestValidation:
    def test_predict_requires_fit(self):
        model = SequenceRegressor(2, hidden_size=8, num_layers=1, seed=0)
        with pytest.raises(NotFittedError):
            model.predict(np.zeros((1, HISTORY, 2)))

    def test_scorer_requires_positive_history(self):
        with pytest.raises(ShapeError):
            BatchedScorer(_MODEL, _SCORER.scaler, history=0)

    def test_predict_batch_validates_rank(self):
        with pytest.raises(ShapeError):
            _SCORER.predict_batch(np.zeros((HISTORY, 2)))
