"""Model-zoo conformance suite: every registered family must pass.

The registry's contract (``repro/nn/registry.py``) is that a family is
only registered once it passes this suite against both sequence-model
roles:

* seeded finite-difference gradient checks on **every trainable
  parameter tensor** (classifier and regressor roles),
* training actually reduces the loss on a small overfit problem,
* ``Desh.fit`` -> ``save_model`` -> ``load_model`` round-trips with
  bit-identical ``warn()`` output,
* online ``DeshModel.update`` works,
* every ``forward`` / ``forward_infer`` / ``backward`` kernel declares
  a ``@tensor_contract`` (what deshlint F1 consumes),
* unknown model names fail as :class:`ConfigError` naming the registry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DeshConfig
from repro.core import Desh
from repro.errors import ConfigError
from repro.nn import (
    CausalConv1d,
    SequenceClassifier,
    SequenceRegressor,
    TCNBackbone,
    TemporalBlock,
    get_model,
    registered_models,
)
from repro.nn.contracts import declared_contracts
from repro.nn.lstm import LSTMCell, StackedLSTM
from repro.nn.optimizers import RMSprop
from repro.pipeline.persist import load_model, save_model

MODELS = registered_models()

#: Central finite differences with this step keep truncation error well
#: below the acceptance bar while staying above f64 cancellation noise
#: for O(1)-magnitude losses.
FD_EPS = 1e-5
FD_TOL = 1e-5


def _assert_grads_match(model, loss) -> None:
    """Compare analytic grads against central differences, elementwise.

    ``loss`` recomputes the scalar training loss from the model's live
    parameters; the analytic gradients must already be accumulated.
    Checks every element of every parameter tensor.
    """
    grads = {k: v.copy() for k, v in model.grads().items()}
    for name, p in model.params().items():
        flat = p.reshape(-1)
        g = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPS
            lp = loss()
            flat[i] = orig - FD_EPS
            lm = loss()
            flat[i] = orig
            numeric = (lp - lm) / (2 * FD_EPS)
            # Sub-noise elements: central differences of an O(1) loss
            # carry ~1e-11 of f64 cancellation error, so gradients that
            # small can only be compared absolutely.
            if abs(g[i] - numeric) <= 1e-9:
                continue
            rel = abs(g[i] - numeric) / max(1e-6, abs(g[i]) + abs(numeric))
            assert rel <= FD_TOL, (
                f"{name}[{i}]: analytic {g[i]:.3e} vs numeric {numeric:.3e} "
                f"(rel {rel:.2e})"
            )


# ----------------------------------------------------------------------
# gradient checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", MODELS)
def test_regressor_gradients_match_finite_differences(name):
    rng = np.random.default_rng(11)
    model = SequenceRegressor(
        2, output_dim=2, hidden_size=5, num_layers=2, seed=3, backbone=name
    )
    x = rng.random((4, 6, 2))
    y = rng.random((4, 2))

    def loss() -> float:
        return model.loss_fn.loss(model.forward(x), y)

    model._zero_grad()
    pred = model.forward(x)
    model._backward(model.loss_fn.grad(pred, y))
    _assert_grads_match(model, loss)


@pytest.mark.parametrize("name", MODELS)
def test_classifier_gradients_match_finite_differences(name):
    rng = np.random.default_rng(12)
    vocab, steps = 6, 2
    model = SequenceClassifier(
        vocab,
        embed_dim=4,
        hidden_size=5,
        num_layers=1,
        steps=steps,
        seed=4,
        backbone=name,
    )
    x = rng.integers(0, vocab, size=(3, 6))
    y = rng.integers(0, vocab, size=(3, steps))

    def loss() -> float:
        logits = model.forward(x)
        return sum(
            model.loss_fn.loss(lg, y[:, k]) for k, lg in enumerate(logits)
        )

    model._zero_grad()
    logits = model.forward(x)
    model._backward(
        [model.loss_fn.grad(lg, y[:, k]) for k, lg in enumerate(logits)]
    )
    _assert_grads_match(model, loss)


# ----------------------------------------------------------------------
# training smoke: the loss must actually go down
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", MODELS)
def test_fit_reduces_loss_on_overfit_problem(name):
    rng = np.random.default_rng(21)
    model = SequenceRegressor(
        2, output_dim=2, hidden_size=8, num_layers=2, seed=5, backbone=name
    )
    x = rng.random((16, 5, 2))
    y = rng.random((16, 2))
    losses = model.fit(
        x,
        y,
        epochs=30,
        batch_size=8,
        optimizer=RMSprop(0.01),
        rng=np.random.default_rng(6),
    )
    assert losses[-1] < losses[0] * 0.7, losses[:3] + losses[-3:]


# ----------------------------------------------------------------------
# full-model round trip + online update (per family)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=MODELS)
def zoo_model(request, small_log, mini_config):
    """A trained end-to-end Desh model per registered family."""
    config = mini_config.replace(
        model=request.param,
        phase2=mini_config.phase2.__class__(
            hidden_size=16, epochs=40, learning_rate=0.01
        ),
    )
    train, _ = small_log.split(0.3)
    return Desh(config).fit(list(train.records), train_classifier=False)


def test_save_load_roundtrip_bit_identical_warn(zoo_model, test_split, tmp_path):
    save_model(zoo_model, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    assert loaded.config.model == zoo_model.config.model
    records = list(test_split.records)
    assert loaded.warn(records) == zoo_model.warn(records)


def test_online_update_supported(zoo_model, test_split):
    records = list(test_split.records)[:400]
    learned = zoo_model.update(records, epochs=2)
    assert learned >= 0
    assert isinstance(zoo_model.warn(records), list)


# ----------------------------------------------------------------------
# tensor contracts on every kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "cls",
    [
        StackedLSTM,
        TCNBackbone,
        CausalConv1d,
        TemporalBlock,
        LSTMCell,
    ],
)
def test_kernels_declare_tensor_contracts(cls):
    contracts = declared_contracts(cls)
    for method in ("forward", "backward"):
        assert method in contracts, f"{cls.__name__}.{method} lacks a contract"
    if hasattr(cls, "forward_infer"):
        assert "forward_infer" in contracts, (
            f"{cls.__name__}.forward_infer lacks a contract"
        )


@pytest.mark.parametrize("name", MODELS)
def test_registered_backbones_declare_contracts(name):
    contracts = declared_contracts(get_model(name).backbone)
    assert {"forward", "forward_infer", "backward"} <= set(contracts)


# ----------------------------------------------------------------------
# registry failure modes
# ----------------------------------------------------------------------
def test_unknown_model_raises_configerror_naming_registry():
    with pytest.raises(ConfigError) as exc:
        get_model("bogus")
    message = str(exc.value)
    for name in MODELS:
        assert name in message
    # A retired family fails the same way, from outside input too.
    with pytest.raises(ConfigError) as exc:
        DeshConfig(model="attention")
    for name in ("lstm", "tcn"):
        assert name in str(exc.value)


def test_unknown_hyperparameter_raises_configerror():
    with pytest.raises(ConfigError, match="kernel_size"):
        get_model("tcn").resolve_params({"stride": 2})


def test_unknown_backbone_in_model_ctor():
    with pytest.raises(ConfigError, match="registered models"):
        SequenceRegressor(2, backbone="bogus")
