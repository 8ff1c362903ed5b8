"""Sequence models: the trainable units behind Desh's three phases.

* :class:`SequenceClassifier` — embedding + sequence backbone + one
  softmax head per prediction step.  Phase 1 instantiates it with
  history 8 and 3 steps (Table 5); the DeepLog baseline reuses it with
  1 step.
* :class:`SequenceRegressor` — sequence backbone + linear head over
  continuous ``(dT, phrase)`` vectors with MSE loss; phases 2-3.

The backbone — the ``(B, T, D) -> (B, T, H)`` core whose last position
summarizes the window — is pluggable via the model zoo
(:mod:`repro.nn.registry`): the paper's stacked LSTM by default, or the
``tcn`` / ``attention`` families by name.  Both models expose ``fit`` /
prediction methods and ``save`` / ``load`` npz round-tripping; saved
files record the backbone family and rebuild it through the registry.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..errors import NotFittedError, SerializationError, ShapeError, TrainingError
from ..obs import current_tracer, metrics_registry
from .data import batch_iterator
from .layers import Dense, Embedding
from .losses import CategoricalCrossEntropy, MeanSquaredError
from .optimizers import RMSprop, SGD, _OptimizerBase, clip_gradients
from .registry import build_backbone

__all__ = ["SequenceClassifier", "SequenceRegressor"]


def _merge_params(*sources: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for prefix, mapping in enumerate(sources):
        for name, arr in mapping.items():
            out[f"m{prefix}.{name}"] = arr
    return out


def _observe_epoch(
    prefix: str, epoch: int, loss: float, elapsed_ms: float
) -> None:
    """Record one completed training epoch into the metrics registry.

    Per-epoch granularity keeps this cheap enough to run unconditionally
    (a handful of dict lookups per epoch, not per batch).
    """
    registry = metrics_registry()
    registry.gauge(f"{prefix}.epoch").set(float(epoch))
    registry.gauge(f"{prefix}.epoch_loss").set(float(loss))
    registry.histogram(f"{prefix}.epoch_ms").observe(elapsed_ms)


def _resume_fit(model, checkpoint, opt, rng) -> int:
    """Restore params/optimizer/rng/history from the newest checkpoint.

    Returns the number of already-completed epochs (0 when the manager
    holds no checkpoint yet).
    """
    from ..resilience.checkpoint import restore_fit_state

    resumed = checkpoint.load_latest()
    if resumed is None:
        return 0
    _, arrays, meta = resumed
    epoch = restore_fit_state(arrays, meta, model.params(), opt, rng)
    model.history = [float(v) for v in meta.get("history", [])]
    return epoch


def _checkpoint_fit(model, checkpoint, opt, rng, epoch: int) -> None:
    """Write an epoch-granular checkpoint of the in-progress fit."""
    from ..resilience.checkpoint import pack_fit_state

    arrays, meta = pack_fit_state(
        model.params(),
        opt,
        rng,
        epoch=epoch,
        extra_meta={"history": [float(v) for v in model.history]},
    )
    checkpoint.save(epoch, arrays, meta)


class SequenceClassifier:
    """Next-phrase classifier: Embedding -> backbone -> k softmax heads.

    For a history window of phrase ids, head ``k`` predicts the phrase
    ``k+1`` positions after the window — the paper's "3-step prediction
    (to predict the next 3 phrases)".  ``backbone`` names a model-zoo
    family (``lstm``/``tcn``/``attention``); ``backbone_params`` are the
    family-specific hyperparameter overrides.
    """

    def __init__(
        self,
        vocab_size: int,
        *,
        embed_dim: int = 32,
        hidden_size: int = 64,
        num_layers: int = 2,
        steps: int = 3,
        seed: int = 0,
        pretrained_embeddings: np.ndarray | None = None,
        backbone: str = "lstm",
        backbone_params: Mapping[str, object] | None = None,
    ) -> None:
        if vocab_size < 2:
            raise ShapeError(f"vocab_size must be >= 2, got {vocab_size}")
        if steps < 1:
            raise ShapeError(f"steps must be >= 1, got {steps}")
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.steps = steps
        self.seed = seed
        self.backbone_name = backbone
        self.backbone_params = dict(backbone_params or {})
        self.embedding = Embedding(vocab_size, embed_dim, rng)
        if pretrained_embeddings is not None:
            self.embedding.load_vectors(pretrained_embeddings)
        self.backbone = build_backbone(
            backbone, embed_dim, hidden_size, num_layers, rng,
            self.backbone_params,
        )
        self.heads = [Dense(hidden_size, vocab_size, rng) for _ in range(steps)]
        self.loss_fn = CategoricalCrossEntropy()
        self.history: list[float] = []
        self._fitted = False

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x_ids: np.ndarray) -> list[np.ndarray]:
        """Logits per step for an ``(B, T)`` id batch: list of ``(B, V)``."""
        x_ids = np.asarray(x_ids)
        if x_ids.ndim != 2:
            raise ShapeError(f"input ids must be (B, T), got {x_ids.shape}")
        vecs = self.embedding.forward(x_ids)  # (B, T, E)
        hs = self.backbone.forward(vecs)  # (B, T, H)
        self._last_hs_shape = hs.shape
        last = hs[:, -1, :]  # (B, H)
        return [head.forward(last) for head in self.heads]

    def _backward(self, dlogits: Sequence[np.ndarray]) -> None:
        B, T, H = self._last_hs_shape
        dlast = np.zeros((B, H))
        for head, dl in zip(self.heads, dlogits):
            dlast += head.backward(dl)
        dhs = np.zeros((B, T, H))
        dhs[:, -1, :] = dlast
        dvecs = self.backbone.backward(dhs)
        self.embedding.backward(dvecs)

    def _zero_grad(self) -> None:
        self.embedding.zero_grad()
        self.backbone.zero_grad()
        for head in self.heads:
            head.zero_grad()

    def params(self) -> dict[str, np.ndarray]:
        """All trainable parameters, namespaced per sub-module."""
        return _merge_params(
            self.embedding.params(),
            self.backbone.params(),
            *[h.params() for h in self.heads],
        )

    def grads(self) -> dict[str, np.ndarray]:
        """All gradients, namespaced like :meth:`params`."""
        return _merge_params(
            self.embedding.grads(),
            self.backbone.grads(),
            *[h.grads() for h in self.heads],
        )

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 8,
        batch_size: int = 64,
        optimizer: _OptimizerBase | None = None,
        grad_clip: float = 5.0,
        rng: np.random.Generator | None = None,
        checkpoint=None,
    ) -> list[float]:
        """Train on ``(N, T)`` windows and ``(N, steps)`` targets.

        Returns the per-epoch mean losses (also kept in ``self.history``).
        Passing a :class:`~repro.resilience.CheckpointManager` as
        ``checkpoint`` writes an atomic checkpoint after every epoch and
        resumes from the newest one on entry, replaying the remaining
        epochs bit-identically to an uninterrupted run.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if x.ndim != 2 or y.ndim != 2 or y.shape != (x.shape[0], self.steps):
            raise ShapeError(
                f"expected x=(N,T), y=(N,{self.steps}); got {x.shape}, {y.shape}"
            )
        if len(x) == 0:
            raise TrainingError("no training windows")
        opt = optimizer if optimizer is not None else SGD(0.5, momentum=0.9)
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        start_epoch = 0
        if checkpoint is not None:
            start_epoch = _resume_fit(self, checkpoint, opt, rng)
        with current_tracer().span(
            "nn.classifier.fit", windows=len(x), epochs=epochs
        ) as fit_span:
            for epoch in range(start_epoch, epochs):
                tick = time.perf_counter()
                epoch_loss = 0.0
                batches = 0
                for idx in batch_iterator(len(x), batch_size, rng):
                    self._zero_grad()
                    logits = self.forward(x[idx])
                    loss = 0.0
                    dlogits = []
                    for k in range(self.steps):
                        loss += self.loss_fn.loss(logits[k], y[idx, k])
                        dlogits.append(self.loss_fn.grad(logits[k], y[idx, k]))
                    loss /= self.steps
                    for dl in dlogits:
                        dl /= self.steps
                    self._backward(dlogits)
                    grads = self.grads()
                    clip_gradients(grads, grad_clip)
                    opt.step(self.params(), grads)
                    epoch_loss += loss
                    batches += 1
                self.history.append(epoch_loss / max(batches, 1))
                _observe_epoch(
                    "nn.classifier",
                    epoch,
                    self.history[-1],
                    (time.perf_counter() - tick) * 1e3,
                )
                if checkpoint is not None:
                    _checkpoint_fit(self, checkpoint, opt, rng, epoch + 1)
            if self.history:
                fit_span.set(final_loss=self.history[-1])
        self._fitted = True
        return self.history

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Logits of shape ``(B, steps, V)``."""
        if not self._fitted:
            raise NotFittedError("SequenceClassifier.fit has not run")
        return np.stack(self.forward(np.asarray(x)), axis=1)

    def predict_next(self, x: np.ndarray) -> np.ndarray:
        """Most likely phrase id per step, shape ``(B, steps)``."""
        return np.argmax(self.predict_logits(x), axis=-1)

    def predict_autoregressive(self, x: np.ndarray, steps: int) -> np.ndarray:
        """Multi-step prediction by feeding each prediction back in.

        The deployment-style alternative to the parallel k-step heads:
        predict one phrase with head 0, slide it into the history window,
        and re-run the network — so a k-step prediction costs k forward
        passes (the per-step time growth of the paper's Figure 10).
        Returns predicted ids of shape ``(B, steps)``.
        """
        if not self._fitted:
            raise NotFittedError("SequenceClassifier.fit has not run")
        if steps < 1:
            raise ShapeError(f"steps must be >= 1, got {steps}")
        window = np.array(x, dtype=np.int64, copy=True)
        if window.ndim != 2:
            raise ShapeError(f"input ids must be (B, T), got {window.shape}")
        out = np.empty((window.shape[0], steps), dtype=np.int64)
        for k in range(steps):
            logits = self.forward(window)[0]
            nxt = np.argmax(logits, axis=-1)
            out[:, k] = nxt
            window = np.concatenate([window[:, 1:], nxt[:, None]], axis=1)
        return out

    def predict_topk(self, x: np.ndarray, k: int) -> np.ndarray:
        """Top-*k* candidate phrase ids per step, shape ``(B, steps, k)``.

        This is the primitive behind DeepLog-style detection: an observed
        key is anomalous when absent from the top-*g* predictions.
        """
        if k < 1 or k > self.vocab_size:
            raise ShapeError(f"k must be in [1, {self.vocab_size}], got {k}")
        logits = self.predict_logits(x)
        part = np.argpartition(-logits, k - 1, axis=-1)[..., :k]
        return part

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean exact-match accuracy over all steps."""
        pred = self.predict_next(x)
        y = np.asarray(y)
        if pred.shape != y.shape:
            raise ShapeError(f"shape mismatch: {pred.shape} vs {y.shape}")
        return float((pred == y).mean())

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist architecture metadata and weights to an ``.npz`` file."""
        meta = {
            "kind": "SequenceClassifier",
            "vocab_size": self.vocab_size,
            "embed_dim": self.embed_dim,
            "hidden_size": self.hidden_size,
            "num_layers": self.num_layers,
            "steps": self.steps,
            "seed": self.seed,
            "fitted": self._fitted,
            "backbone": self.backbone_name,
            "backbone_params": self.backbone_params,
        }
        arrays = {k.replace(".", "__"): v for k, v in self.params().items()}
        np.savez(path, __meta__=json.dumps(meta), **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "SequenceClassifier":
        """Rebuild a saved classifier; inverse of :meth:`save`."""
        try:
            data = np.load(path, allow_pickle=False)
            meta = json.loads(str(data["__meta__"]))
        except (OSError, KeyError, ValueError) as exc:
            raise SerializationError(f"cannot load model from {path}") from exc
        if meta.get("kind") != "SequenceClassifier":
            raise SerializationError(f"{path} does not hold a SequenceClassifier")
        model = cls(
            meta["vocab_size"],
            embed_dim=meta["embed_dim"],
            hidden_size=meta["hidden_size"],
            num_layers=meta["num_layers"],
            steps=meta["steps"],
            seed=meta["seed"],
            # Files written before the model zoo carry no backbone field;
            # they are implicitly the paper's LSTM.
            backbone=meta.get("backbone", "lstm"),
            backbone_params=meta.get("backbone_params", {}),
        )
        params = model.params()
        for key, arr in params.items():
            stored = data[key.replace(".", "__")]
            if stored.shape != arr.shape:
                raise SerializationError(f"shape mismatch for {key} in {path}")
            arr[...] = stored
        model._fitted = bool(meta.get("fitted", False))
        return model


class SequenceRegressor:
    """Continuous sequence regressor: backbone -> linear head, MSE loss.

    Phase 2 trains it on windows of ``(dT, phrase_id)`` 2-state vectors
    with RMSprop (Table 5); phase 3 reuses the trained weights for
    per-node inference.  ``backbone`` names a model-zoo family
    (``lstm``/``tcn``/``attention``).
    """

    def __init__(
        self,
        input_dim: int,
        *,
        output_dim: int | None = None,
        hidden_size: int = 64,
        num_layers: int = 2,
        seed: int = 0,
        backbone: str = "lstm",
        backbone_params: Mapping[str, object] | None = None,
    ) -> None:
        if input_dim < 1:
            raise ShapeError(f"input_dim must be >= 1, got {input_dim}")
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.output_dim = output_dim if output_dim is not None else input_dim
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.seed = seed
        self.backbone_name = backbone
        self.backbone_params = dict(backbone_params or {})
        self.backbone = build_backbone(
            backbone, input_dim, hidden_size, num_layers, rng,
            self.backbone_params,
        )
        self.head = Dense(hidden_size, self.output_dim, rng)
        self.loss_fn = MeanSquaredError()
        self.history: list[float] = []
        self._fitted = False

    # ------------------------------------------------------------------
    def _windows(self, x: np.ndarray) -> np.ndarray:
        """*x* as float64 ``(B, T, input_dim)`` windows, or ShapeError."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ShapeError(
                f"input must be (B, T, {self.input_dim}), got {x.shape}"
            )
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Predict the next sample for each ``(B, T, D)`` window: ``(B, D_out)``."""
        hs = self.backbone.forward(self._windows(x))
        self._last_hs_shape = hs.shape
        return self.head.forward(hs[:, -1, :])

    def _backward(self, dy: np.ndarray) -> None:
        B, T, H = self._last_hs_shape
        dlast = self.head.backward(dy)
        dhs = np.zeros((B, T, H))
        dhs[:, -1, :] = dlast
        self.backbone.backward(dhs)

    def _zero_grad(self) -> None:
        self.backbone.zero_grad()
        self.head.zero_grad()

    def params(self) -> dict[str, np.ndarray]:
        """All trainable parameters, namespaced per sub-module."""
        return _merge_params(self.backbone.params(), self.head.params())

    def grads(self) -> dict[str, np.ndarray]:
        """All gradients, namespaced like :meth:`params`."""
        return _merge_params(self.backbone.grads(), self.head.grads())

    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 30,
        batch_size: int = 32,
        optimizer: _OptimizerBase | None = None,
        grad_clip: float = 5.0,
        rng: np.random.Generator | None = None,
        checkpoint=None,
    ) -> list[float]:
        """Train on ``(N, T, D)`` windows and ``(N, D_out)`` targets.

        ``checkpoint`` behaves as in :meth:`SequenceClassifier.fit`:
        per-epoch atomic checkpoints with bit-identical resume.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 3 or y.shape != (x.shape[0], self.output_dim):
            raise ShapeError(
                f"expected x=(N,T,{self.input_dim}), y=(N,{self.output_dim}); "
                f"got {x.shape}, {y.shape}"
            )
        if len(x) == 0:
            raise TrainingError("no training windows")
        opt = optimizer if optimizer is not None else RMSprop(0.002)
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        start_epoch = 0
        if checkpoint is not None:
            start_epoch = _resume_fit(self, checkpoint, opt, rng)
        with current_tracer().span(
            "nn.regressor.fit", windows=len(x), epochs=epochs
        ) as fit_span:
            for epoch in range(start_epoch, epochs):
                tick = time.perf_counter()
                epoch_loss = 0.0
                batches = 0
                for idx in batch_iterator(len(x), batch_size, rng):
                    self._zero_grad()
                    pred = self.forward(x[idx])
                    loss = self.loss_fn.loss(pred, y[idx])
                    self._backward(self.loss_fn.grad(pred, y[idx]))
                    grads = self.grads()
                    clip_gradients(grads, grad_clip)
                    opt.step(self.params(), grads)
                    epoch_loss += loss
                    batches += 1
                self.history.append(epoch_loss / max(batches, 1))
                _observe_epoch(
                    "nn.regressor",
                    epoch,
                    self.history[-1],
                    (time.perf_counter() - tick) * 1e3,
                )
                if checkpoint is not None:
                    _checkpoint_fit(self, checkpoint, opt, rng, epoch + 1)
            if self.history:
                fit_span.set(final_loss=self.history[-1])
        self._fitted = True
        return self.history

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Next-sample predictions, shape ``(B, D_out)``.

        The one inference forward: the backbone's cache-free
        ``forward_infer`` kernel and the row-stable
        :meth:`Dense.forward_stable` head, so each window's prediction
        is bitwise independent of how many other windows share the
        batch (for B >= 2).  Offline and online phase-3 scoring both go
        through here; outputs may differ from :meth:`forward` (the
        training forward, which keeps BPTT caches) by 1-2 ulp.
        """
        if not self._fitted:
            raise NotFittedError("SequenceRegressor.fit has not run")
        hs = self.backbone.forward_infer(self._windows(x))
        return self.head.forward_stable(hs[:, -1, :])

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist architecture metadata and weights to an ``.npz`` file."""
        meta = {
            "kind": "SequenceRegressor",
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "hidden_size": self.hidden_size,
            "num_layers": self.num_layers,
            "seed": self.seed,
            "fitted": self._fitted,
            "backbone": self.backbone_name,
            "backbone_params": self.backbone_params,
        }
        arrays = {k.replace(".", "__"): v for k, v in self.params().items()}
        np.savez(path, __meta__=json.dumps(meta), **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "SequenceRegressor":
        """Rebuild a saved regressor; inverse of :meth:`save`."""
        try:
            data = np.load(path, allow_pickle=False)
            meta = json.loads(str(data["__meta__"]))
        except (OSError, KeyError, ValueError) as exc:
            raise SerializationError(f"cannot load model from {path}") from exc
        if meta.get("kind") != "SequenceRegressor":
            raise SerializationError(f"{path} does not hold a SequenceRegressor")
        model = cls(
            meta["input_dim"],
            output_dim=meta["output_dim"],
            hidden_size=meta["hidden_size"],
            num_layers=meta["num_layers"],
            seed=meta["seed"],
            # Pre-model-zoo files carry no backbone field: implicitly LSTM.
            backbone=meta.get("backbone", "lstm"),
            backbone_params=meta.get("backbone_params", {}),
        )
        params = model.params()
        for key, arr in params.items():
            stored = data[key.replace(".", "__")]
            if stored.shape != arr.shape:
                raise SerializationError(f"shape mismatch for {key} in {path}")
            arr[...] = stored
        model._fitted = bool(meta.get("fitted", False))
        return model
