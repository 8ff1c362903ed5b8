"""Numerically stable activation functions and their derivatives.

All functions are elementwise and fully vectorized; derivative helpers
take the *activated* value (not the pre-activation) so forward caches
can be reused during backprop without recomputation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid",
    "sigmoid_grad",
    "sigmoid_infer",
    "tanh",
    "tanh_grad",
    "relu",
    "softmax",
    "log_softmax",
]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, stable for large |x|; the training kernel.

    Branch-free form of the two-branch formulation, bit for bit: an
    element takes ``e = exp(-x)`` and ``1 / (1 + e)`` when ``x >= 0``,
    ``e = exp(x)`` and ``e / (1 + e)`` otherwise, so ``exp`` never
    overflows.  ``minimum(x, -x)`` is the exp argument of the live
    branch (for a NaN both operands are NaN and NumPy returns the
    first, so NaN takes the ``x < 0`` branch with its payload intact,
    as ``x >= 0`` is false).  The numerator ``maximum(e, x >= 0)`` is 1
    where ``x >= 0`` (there ``e <= 1``) and ``e`` elsewhere (``e >= 0``,
    and a NaN ``e`` is returned as is).  Every element thus goes
    through exactly the IEEE operations of its branch, ``-0.0``, ``inf``
    and NaN included; ``tests/test_nn_train_exact.py`` pins this against
    the masked two-branch version, because trained weights and pipeline
    cache fingerprints depend on these bits.  The output is float64
    whatever the input dtype.
    """
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    out = np.maximum(e, (x >= 0).astype(e.dtype))
    out /= d
    return out.astype(np.float64, copy=False)


def sigmoid_infer(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid for the inference path: fewer passes, in place.

    Computes ``1 / (1 + exp(-x))`` directly with three vectorized
    passes and no temporaries beyond the output; the training
    :func:`sigmoid` makes about twice as many passes to pick each
    element's branch and stay overflow-free.  For very negative ``x``,
    ``exp(-x)`` overflows to ``inf`` and the reciprocal correctly
    returns ``0.0``; the overflow warning is suppressed because that
    saturation is the intended result, not an error.

    The output may differ from :func:`sigmoid` in the last 1-2 ulp (the
    two formulations round differently), which is why training keeps
    its own kernel: pipeline caches fingerprint training outputs.
    The inference path only requires *self*-consistency — every scoring
    route goes through this same function, so batched and sequential
    scoring still agree bit for bit.
    """
    with np.errstate(over="ignore"):
        out = np.exp(-x)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def sigmoid_grad(y: np.ndarray) -> np.ndarray:
    """d sigmoid / dx expressed in the output ``y = sigmoid(x)``."""
    return y * (1.0 - y)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent (numpy's is already stable)."""
    return np.tanh(x)


def tanh_grad(y: np.ndarray) -> np.ndarray:
    """d tanh / dx expressed in the output ``y = tanh(x)``."""
    return 1.0 - y * y


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along *axis*, shifted by the max for stability."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax along *axis* (log-sum-exp trick)."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
