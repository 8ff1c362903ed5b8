"""Bit-exactness of the shared fit epoch loop against per-model oracles.

Both sequence models train through one module-level epoch loop in
:mod:`repro.nn.model`; each model supplies only its ``_batch_loss``.
This file keeps the two earlier per-model loops — the classifier's
k-step cross-entropy loop and the regressor's MSE loop, with their
checkpoint resume and per-epoch checkpoint writes — as test-local
oracles, and requires ``tobytes()`` equality of every parameter and of
the loss history, fresh and resumed from a :class:`CheckpointManager`
after a partial fit.  Clipping is kept active (a small ``grad_clip``)
so a loop that steps before it clips, or draws its batches in another
order, cannot pass; the last group shows both are detected.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.model as model_mod
from repro.nn import SequenceClassifier, SequenceRegressor
from repro.nn.data import batch_iterator
from repro.nn.optimizers import RMSprop, SGD, clip_gradients
from repro.obs import MetricsRegistry, activate_metrics
from repro.resilience import CheckpointManager, pack_fit_state, restore_fit_state

GRAD_CLIP = 0.05
EPOCHS = 4
PARTIAL = 2


# ----------------------------------------------------------------------
# oracles: the per-model loops, spans and metrics left out
# ----------------------------------------------------------------------
def _oracle_resume(model, checkpoint, opt, rng) -> int:
    if checkpoint is None:
        return 0
    resumed = checkpoint.load_latest()
    if resumed is None:
        return 0
    _, arrays, meta = resumed
    epoch = restore_fit_state(arrays, meta, model.params(), opt, rng)
    model.history = [float(v) for v in meta.get("history", [])]
    return epoch


def _oracle_checkpoint(model, checkpoint, opt, rng, epoch: int) -> None:
    arrays, meta = pack_fit_state(
        model.params(),
        opt,
        rng,
        epoch=epoch,
        extra_meta={"history": [float(v) for v in model.history]},
    )
    checkpoint.save(epoch, arrays, meta)


def oracle_classifier_fit(model, x, y, *, epochs, batch_size, optimizer,
                          grad_clip, rng, checkpoint=None):
    """The classifier's own epoch loop."""
    x = np.asarray(x)
    y = np.asarray(y)
    start_epoch = _oracle_resume(model, checkpoint, optimizer, rng)
    for epoch in range(start_epoch, epochs):
        epoch_loss = 0.0
        batches = 0
        for idx in batch_iterator(len(x), batch_size, rng):
            model._zero_grad()
            logits = model.forward(x[idx])
            loss = 0.0
            dlogits = []
            for k in range(model.steps):
                loss += model.loss_fn.loss(logits[k], y[idx, k])
                dlogits.append(model.loss_fn.grad(logits[k], y[idx, k]))
            loss /= model.steps
            for dl in dlogits:
                dl /= model.steps
            model._backward(dlogits)
            grads = model.grads()
            clip_gradients(grads, grad_clip)
            optimizer.step(model.params(), grads)
            epoch_loss += loss
            batches += 1
        model.history.append(epoch_loss / max(batches, 1))
        if checkpoint is not None:
            _oracle_checkpoint(model, checkpoint, optimizer, rng, epoch + 1)
    model._fitted = True
    return model.history


def oracle_regressor_fit(model, x, y, *, epochs, batch_size, optimizer,
                         grad_clip, rng, checkpoint=None):
    """The regressor's own epoch loop."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    start_epoch = _oracle_resume(model, checkpoint, optimizer, rng)
    for epoch in range(start_epoch, epochs):
        epoch_loss = 0.0
        batches = 0
        for idx in batch_iterator(len(x), batch_size, rng):
            model._zero_grad()
            pred = model.forward(x[idx])
            loss = model.loss_fn.loss(pred, y[idx])
            model._backward(model.loss_fn.grad(pred, y[idx]))
            grads = model.grads()
            clip_gradients(grads, grad_clip)
            optimizer.step(model.params(), grads)
            epoch_loss += loss
            batches += 1
        model.history.append(epoch_loss / max(batches, 1))
        if checkpoint is not None:
            _oracle_checkpoint(model, checkpoint, optimizer, rng, epoch + 1)
    model._fitted = True
    return model.history


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
def _classifier_case():
    rng = np.random.default_rng(11)
    x = rng.integers(0, 9, size=(70, 6))
    y = rng.integers(0, 9, size=(70, 3))

    def build():
        model = SequenceClassifier(
            9, embed_dim=5, hidden_size=7, num_layers=2, steps=3, seed=4
        )
        return model, SGD(0.5, momentum=0.9)

    return build, x, y, 16, oracle_classifier_fit


def _regressor_case():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(66, 5, 2))
    y = rng.normal(size=(66, 2))

    def build():
        model = SequenceRegressor(2, hidden_size=6, num_layers=2, seed=5)
        return model, RMSprop(0.01)

    return build, x, y, 16, oracle_regressor_fit


CASES = {"classifier": _classifier_case, "regressor": _regressor_case}


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_fit(got, want) -> None:
    assert got.params().keys() == want.params().keys()
    for key, arr in want.params().items():
        assert same_bytes(got.params()[key], arr), key
    assert same_bytes(np.array(got.history), np.array(want.history))
    assert len(got.history) == EPOCHS


def _fit(model, opt, x, y, batch_size, epochs, checkpoint=None):
    return model.fit(
        x, y, epochs=epochs, batch_size=batch_size, optimizer=opt,
        grad_clip=GRAD_CLIP, rng=np.random.default_rng(21),
        checkpoint=checkpoint,
    )


def _oracle(oracle, model, opt, x, y, batch_size, epochs, checkpoint=None):
    return oracle(
        model, x, y, epochs=epochs, batch_size=batch_size, optimizer=opt,
        grad_clip=GRAD_CLIP, rng=np.random.default_rng(21),
        checkpoint=checkpoint,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_fit_matches_oracle(name):
    build, x, y, batch_size, oracle = CASES[name]()
    got, opt = build()
    _fit(got, opt, x, y, batch_size, EPOCHS)
    want, opt = build()
    _oracle(oracle, want, opt, x, y, batch_size, EPOCHS)
    assert_same_fit(got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_default_rng_fit_matches_oracle(name):
    # fit(rng=None) shuffles with a generator seeded by the model seed.
    build, x, y, batch_size, oracle = CASES[name]()
    got, opt = build()
    got.fit(x, y, epochs=EPOCHS, batch_size=batch_size, optimizer=opt,
            grad_clip=GRAD_CLIP)
    want, opt = build()
    oracle(want, x, y, epochs=EPOCHS, batch_size=batch_size, optimizer=opt,
           grad_clip=GRAD_CLIP, rng=np.random.default_rng(want.seed))
    assert_same_fit(got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_resumed_fit_matches_oracle(name, tmp_path):
    build, x, y, batch_size, oracle = CASES[name]()

    manager = CheckpointManager(tmp_path / "loop")
    partial, opt = build()
    _fit(partial, opt, x, y, batch_size, PARTIAL, checkpoint=manager)
    got, opt = build()  # fresh weights and optimizer: all state from disk
    _fit(got, opt, x, y, batch_size, EPOCHS, checkpoint=manager)

    oracle_manager = CheckpointManager(tmp_path / "oracle")
    partial, opt = build()
    _oracle(oracle, partial, opt, x, y, batch_size, PARTIAL,
            checkpoint=oracle_manager)
    want, opt = build()
    _oracle(oracle, want, opt, x, y, batch_size, EPOCHS,
            checkpoint=oracle_manager)

    assert manager.steps() == oracle_manager.steps()
    assert_same_fit(got, want)
    straight, opt = build()
    _oracle(oracle, straight, opt, x, y, batch_size, EPOCHS)
    assert_same_fit(got, straight)


@pytest.mark.parametrize("name", sorted(CASES))
def test_epoch_metrics_keep_their_names(name):
    build, x, y, batch_size, _ = CASES[name]()
    model, opt = build()
    registry = MetricsRegistry()
    with activate_metrics(registry):
        _fit(model, opt, x, y, batch_size, EPOCHS)
    prefix = f"nn.{name}"
    assert registry.gauge(f"{prefix}.epoch").value == EPOCHS - 1
    assert registry.gauge(f"{prefix}.epoch_loss").value == model.history[-1]
    assert registry.histogram(f"{prefix}.epoch_ms").count == EPOCHS


# ----------------------------------------------------------------------
# the comparison is sharp: reordered loops are caught
# ----------------------------------------------------------------------
def _step_before_clip(grads, max_norm):
    """What the loop does if it steps first: the step sees raw grads."""
    return None


def _reversed_batches(n, batch_size, rng=None):
    return reversed(list(batch_iterator(n, batch_size, rng)))


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize(
    "attr, replacement",
    [("clip_gradients", _step_before_clip),
     ("batch_iterator", _reversed_batches)],
)
def test_reordered_loop_is_detected(name, attr, replacement, monkeypatch):
    build, x, y, batch_size, oracle = CASES[name]()
    want, opt = build()
    _oracle(oracle, want, opt, x, y, batch_size, EPOCHS)
    monkeypatch.setattr(model_mod, attr, replacement)
    got, opt = build()
    _fit(got, opt, x, y, batch_size, EPOCHS)
    assert any(
        not same_bytes(got.params()[key], arr)
        for key, arr in want.params().items()
    )
