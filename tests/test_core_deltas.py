"""Tests for cumulative delta-time computation and vector encoding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.deltas import LeadTimeScaler, chain_to_deltas
from repro.errors import ShapeError


class TestChainToDeltas:
    def test_table4_semantics(self):
        """Table 4: dT is the cumulative difference to the last phrase,
        which gets dT = 0."""
        # Timestamps from the paper's Table 4 example (seconds within
        # the minute, chain ends at 04:00:06.288).
        ts = np.array([0.0, 1.077, 2.011, 3.240, 3.265, 7.822])
        deltas = chain_to_deltas(ts)
        assert deltas[-1] == 0.0
        assert deltas[0] == pytest.approx(7.822)
        assert deltas[1] == pytest.approx(6.745)

    def test_monotone_nonincreasing(self):
        deltas = chain_to_deltas(np.array([0.0, 5.0, 5.0, 9.0]))
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_single_event(self):
        assert chain_to_deltas(np.array([42.0])).tolist() == [0.0]

    def test_rejects_decreasing(self):
        with pytest.raises(ShapeError):
            chain_to_deltas(np.array([5.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            chain_to_deltas(np.array([]))

    @given(st.lists(st.floats(0, 1e5), min_size=1, max_size=20))
    def test_property_last_is_zero(self, times):
        ts = np.sort(np.array(times))
        deltas = chain_to_deltas(ts)
        assert deltas[-1] == 0.0
        assert np.all(deltas >= 0)


class TestLeadTimeScaler:
    @pytest.fixture
    def scaler(self):
        return LeadTimeScaler(max_lead_seconds=600.0, vocab_size=50)

    def test_encode_shape(self, scaler):
        out = scaler.encode(np.array([10.0, 0.0]), np.array([3, 7]))
        assert out.shape == (2, 2)

    def test_dt_normalization(self, scaler):
        out = scaler.encode(np.array([300.0]), np.array([0]))
        assert out[0, 0] == pytest.approx(0.5)

    def test_dt_clipped_at_horizon(self, scaler):
        out = scaler.encode(np.array([9000.0]), np.array([0]))
        assert out[0, 0] == 1.0

    def test_id_scaling(self, scaler):
        out = scaler.encode(np.array([0.0]), np.array([25]))
        assert out[0, 1] == pytest.approx(25 / 50 * scaler.id_scale)

    def test_decode_lead_round_trip(self, scaler):
        for dt in (0.0, 120.0, 599.0):
            encoded = scaler.encode(np.array([dt]), np.array([0]))
            assert scaler.decode_lead_seconds(encoded[0, 0]) == pytest.approx(dt)

    def test_encode_chain(self, scaler):
        out = scaler.encode_chain(np.array([0.0, 60.0]), np.array([1, 2]))
        assert out[0, 0] == pytest.approx(0.1)  # 60s before end
        assert out[1, 0] == 0.0

    def test_rejects_negative_deltas(self, scaler):
        with pytest.raises(ShapeError):
            scaler.encode(np.array([-1.0]), np.array([0]))

    def test_rejects_out_of_vocab(self, scaler):
        with pytest.raises(ShapeError):
            scaler.encode(np.array([0.0]), np.array([50]))

    def test_rejects_shape_mismatch(self, scaler):
        with pytest.raises(ShapeError):
            scaler.encode(np.array([0.0, 1.0]), np.array([0]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_lead_seconds": 0.0, "vocab_size": 10},
            {"max_lead_seconds": 10.0, "vocab_size": 1},
            {"max_lead_seconds": 10.0, "vocab_size": 10, "id_scale": 0.0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ShapeError):
            LeadTimeScaler(**kwargs)

    @given(
        st.floats(0, 600),
        st.integers(0, 49),
    )
    def test_property_round_trip(self, dt, pid):
        scaler = LeadTimeScaler(600.0, 50)
        enc = scaler.encode(np.array([dt]), np.array([pid]))
        assert scaler.decode_lead_seconds(enc[0, 0]) == pytest.approx(dt, abs=1e-9)


class TestPaperUnitsMSE:
    @pytest.fixture
    def scaler(self):
        return LeadTimeScaler(max_lead_seconds=600.0, vocab_size=50)

    def test_exact_match_is_zero(self, scaler):
        v = scaler.encode(np.array([60.0, 0.0]), np.array([3, 7]))
        assert np.allclose(scaler.mse_paper_units(v, v), 0.0)

    def test_one_id_off_contributes_half(self, scaler):
        """A single-id phrase mismatch alone gives MSE 0.5 — exactly the
        paper's threshold, which is why 0.5 demands an exact phrase
        match."""
        a = scaler.encode(np.array([0.0]), np.array([10]))
        b = scaler.encode(np.array([0.0]), np.array([11]))
        assert scaler.mse_paper_units(a, b)[0] == pytest.approx(0.5)

    def test_one_minute_dt_error_contributes_half(self, scaler):
        a = scaler.encode(np.array([60.0]), np.array([10]))
        b = scaler.encode(np.array([0.0]), np.array([10]))
        assert scaler.mse_paper_units(a, b)[0] == pytest.approx(0.5)

    def test_independent_of_id_scale(self):
        """The paper-unit MSE must not change with the internal id_scale."""
        for id_scale in (1.0, 4.0, 10.0):
            scaler = LeadTimeScaler(600.0, 50, id_scale=id_scale)
            a = scaler.encode(np.array([30.0]), np.array([5]))
            b = scaler.encode(np.array([90.0]), np.array([9]))
            expected = 0.5 * ((60.0 / 60.0) ** 2 + 4.0**2)
            assert scaler.mse_paper_units(a, b)[0] == pytest.approx(expected)

    def test_rejects_bad_shapes(self, scaler):
        with pytest.raises(ShapeError):
            scaler.mse_paper_units(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            scaler.mse_paper_units(np.zeros((2, 3)), np.zeros((2, 3)))
