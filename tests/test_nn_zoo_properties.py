"""Property-based tests for the TCN zoo kernel.

Four invariants, checked under hypothesis:

* **causality** — output at step ``t`` is bitwise invariant to
  perturbing inputs at any step ``> t`` (the dilated convolutions are
  left-padded);
* **batch independence** — a window scored inside any batch of size
  >= 2 equals the same window scored in a different batch of size >= 2
  bit-for-bit, the same regime ``test_nn_batched.py`` pins for the
  LSTM (all matmuls keep the batch axis stacked, so per-sequence GEMM
  shapes never depend on ``B``);
* **dtype/shape stability** — float64 in, float64 out, with
  :class:`ShapeError` on malformed input;
* **cache-free inference** — ``forward_infer`` equals ``forward``
  bit-for-bit and leaves every training cache as the last ``forward``
  left it, so the inference kernel can run concurrently.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.nn import TCNBackbone, build_backbone

IN, HID = 3, 6

# Shared instances: hypothesis examples must not pay construction cost.
_BACKBONES = {
    "tcn": build_backbone("tcn", IN, HID, 2, np.random.default_rng(5)),
}

ZOO = sorted(_BACKBONES)


@pytest.mark.parametrize("name", ZOO)
@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_causality_future_perturbation_invisible(name, data):
    """Perturbing steps > t leaves outputs at steps <= t bit-identical."""
    bb = _BACKBONES[name]
    T = data.draw(st.integers(2, 10), label="T")
    t = data.draw(st.integers(0, T - 2), label="t")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, T, IN))
    base = bb.forward_infer(x)
    perturbed = x.copy()
    perturbed[:, t + 1 :, :] += rng.standard_normal((2, T - t - 1, IN))
    out = bb.forward_infer(perturbed)
    assert np.array_equal(base[:, : t + 1, :], out[:, : t + 1, :])
    # Sanity: the perturbation must actually reach later steps.
    assert not np.array_equal(base[:, t + 1 :, :], out[:, t + 1 :, :])


@pytest.mark.parametrize("name", ZOO)
@given(
    # B >= 2 on both sides: single-row GEMMs may take a different BLAS
    # kernel, the same floor test_nn_batched.py documents for the LSTM.
    b1=st.integers(2, 6),
    b2=st.integers(2, 6),
    T=st.integers(2, 9),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_batch_independence_bitwise(name, b1, b2, T, seed):
    """A row's output never depends on its batch neighbours."""
    bb = _BACKBONES[name]
    rng = np.random.default_rng(seed)
    row = rng.standard_normal((1, T, IN))
    batch_a = np.concatenate([row] + [rng.standard_normal((1, T, IN)) for _ in range(b1 - 1)])
    batch_b = np.concatenate([row] + [rng.standard_normal((1, T, IN)) for _ in range(b2 - 1)])
    out_a = bb.forward_infer(batch_a)[0]
    out_b = bb.forward_infer(batch_b)[0]
    assert np.array_equal(out_a, out_b)


@pytest.mark.parametrize("name", ZOO)
@given(
    B=st.integers(2, 5),
    T=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_dtype_and_shape_stability(name, B, T, seed):
    bb = _BACKBONES[name]
    x = np.random.default_rng(seed).standard_normal((B, T, IN)).astype(np.float32)
    out = bb.forward_infer(x)  # float32 input is upcast, not propagated
    assert out.dtype == np.float64
    assert out.shape == (B, T, HID)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("name", ZOO)
def test_malformed_input_raises_shape_error(name):
    bb = _BACKBONES[name]
    with pytest.raises(ShapeError):
        bb.forward_infer(np.zeros((2, 4)))  # missing feature axis
    with pytest.raises(ShapeError):
        bb.forward_infer(np.zeros((2, 4, IN + 1)))  # wrong feature width


def test_tcn_receptive_field_covers_dilations():
    bb = TCNBackbone(IN, HID, 3, np.random.default_rng(1), kernel_size=3)
    # Levels at dilation 1, 2, 4 with k=3: 1 + 2*2*(1+2+4) = 29.
    assert bb.receptive_field == 29


def _caches(bb: TCNBackbone) -> list:
    """Every block's backward caches: conv columns and ReLU masks."""
    out = []
    for block in bb.blocks:
        convs = [block.conv1, block.conv2]
        if block.skip is not None:
            convs.append(block.skip)
        out += [conv._cols for conv in convs] + [block._mask1, block._mask2]
    return out


@given(
    B=st.integers(1, 4),
    T=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_tcn_forward_infer_equals_forward_and_writes_no_cache(B, T, seed):
    """The inference path is the training maths minus the cache writes."""
    bb = TCNBackbone(IN, HID, 2, np.random.default_rng(3))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((B, T, IN))
    trained = bb.forward(x)
    before = _caches(bb)
    snapshot = [c.copy() for c in before]
    assert np.array_equal(bb.forward_infer(x), trained)
    bb.forward_infer(rng.standard_normal((B + 1, T + 1, IN)))
    after = _caches(bb)
    assert all(a is b for a, b in zip(before, after)), "forward_infer wrote a cache"
    assert all(np.array_equal(a, c) for a, c in zip(after, snapshot))
