"""Training harness: validation splits, early stopping, LR decay.

The paper trains for fixed epoch budgets; this harness adds the
engineering around that for production use — hold out a validation
fraction, stop when validation loss plateaus, optionally decay the
learning rate on plateau — while remaining a thin layer over the
models' own ``fit`` (one epoch per call, warm state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError, TrainingError
from ..obs import current_tracer, metrics_registry
from .optimizers import _OptimizerBase

__all__ = ["EarlyStoppingConfig", "TrainingHistory", "fit_with_validation"]


@dataclass(frozen=True)
class EarlyStoppingConfig:
    """Stop when validation loss fails to improve.

    Attributes
    ----------
    patience:
        Epochs without improvement tolerated before stopping.
    min_delta:
        Minimum decrease in validation loss that counts as improvement.
    val_fraction:
        Trailing fraction of the data held out for validation.
    max_epochs:
        Hard training budget.
    lr_decay:
        Multiplier applied to the optimizer's learning rate every time
        patience is half-exhausted (1.0 disables decay).
    """

    patience: int = 10
    min_delta: float = 1e-4
    val_fraction: float = 0.15
    max_epochs: int = 500
    lr_decay: float = 0.5

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.min_delta < 0:
            raise ConfigError("min_delta must be >= 0")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in (0, 1)")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError("lr_decay must be in (0, 1]")


@dataclass
class TrainingHistory:
    """Per-epoch record of a validated training run."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int = -1

    @property
    def epochs_run(self) -> int:
        """Number of epochs actually trained."""
        return len(self.val_losses)

    @property
    def best_val_loss(self) -> float:
        """Lowest validation loss seen (inf before any epoch)."""
        if not self.val_losses:
            return float("inf")
        return min(self.val_losses)


def fit_with_validation(
    model,
    x: np.ndarray,
    y: np.ndarray,
    *,
    optimizer: _OptimizerBase,
    val_loss_fn: Callable[[object, np.ndarray, np.ndarray], float],
    config: EarlyStoppingConfig | None = None,
    batch_size: int = 32,
    grad_clip: float = 5.0,
    seed: int = 0,
    checkpoint=None,
) -> TrainingHistory:
    """Train *model* with a held-out validation split and early stopping.

    Parameters
    ----------
    model:
        A :class:`~repro.nn.model.SequenceClassifier` or
        :class:`~repro.nn.model.SequenceRegressor` (anything with the
        models' ``fit`` signature).
    x, y:
        Full dataset; the trailing ``val_fraction`` (after shuffling) is
        held out.
    val_loss_fn:
        ``f(model, x_val, y_val) -> float`` evaluated after each epoch.
    checkpoint:
        Optional :class:`~repro.resilience.CheckpointManager`.  When
        given, an atomic checkpoint (weights, optimizer slots, early
        stopping counters, loss histories) is written after every epoch
        and the newest intact one is resumed from on entry, so a killed
        run continues to bit-identical weights: the validation split and
        the per-epoch batch rngs are derived deterministically from
        ``seed``, leaving no hidden state outside the checkpoint.
    """
    cfg = config if config is not None else EarlyStoppingConfig()
    if len(x) != len(y):
        raise TrainingError(f"x/y length mismatch: {len(x)} vs {len(y)}")
    n_val = max(1, int(round(len(x) * cfg.val_fraction)))
    if n_val >= len(x):
        raise TrainingError("dataset too small for the validation fraction")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]

    history = TrainingHistory()
    best = float("inf")
    bad_epochs = 0
    start_epoch = 0
    if checkpoint is not None:
        resumed = checkpoint.load_latest()
        if resumed is not None:
            from ..resilience.checkpoint import restore_fit_state

            _, arrays, meta = resumed
            start_epoch = restore_fit_state(
                arrays, meta, model.params(), optimizer, None
            )
            history.train_losses = [float(v) for v in meta.get("train_losses", [])]
            history.val_losses = [float(v) for v in meta.get("val_losses", [])]
            history.best_epoch = int(meta.get("best_epoch", -1))
            history.stopped_early = bool(meta.get("stopped_early", False))
            best = float(meta.get("best", float("inf")))
            bad_epochs = int(meta.get("bad_epochs", 0))
            if history.stopped_early:
                return history
    registry = metrics_registry()
    with current_tracer().span(
        "nn.fit_with_validation",
        train_windows=len(x_train),
        val_windows=len(x_val),
    ) as span:
        for epoch in range(start_epoch, cfg.max_epochs):
            losses = model.fit(
                x_train,
                y_train,
                epochs=1,
                batch_size=batch_size,
                optimizer=optimizer,
                grad_clip=grad_clip,
                rng=np.random.default_rng(seed + 1 + epoch),
            )
            history.train_losses.append(losses[-1])
            val = float(val_loss_fn(model, x_val, y_val))
            history.val_losses.append(val)
            registry.gauge("trainer.train_loss").set(float(losses[-1]))
            registry.gauge("trainer.val_loss").set(val)
            if val < best - cfg.min_delta:
                best = val
                bad_epochs = 0
                history.best_epoch = epoch
            else:
                bad_epochs += 1
                if cfg.lr_decay < 1.0 and bad_epochs == max(
                    1, cfg.patience // 2
                ):
                    optimizer.learning_rate *= cfg.lr_decay
                if bad_epochs >= cfg.patience:
                    history.stopped_early = True
            if checkpoint is not None:
                from ..resilience.checkpoint import pack_fit_state

                arrays, meta = pack_fit_state(
                    model.params(),
                    optimizer,
                    None,
                    epoch=epoch + 1,
                    extra_meta={
                        "train_losses": history.train_losses,
                        "val_losses": history.val_losses,
                        "best_epoch": history.best_epoch,
                        "stopped_early": history.stopped_early,
                        "best": best,
                        "bad_epochs": bad_epochs,
                    },
                )
                checkpoint.save(epoch + 1, arrays, meta)
            if history.stopped_early:
                break
        span.set(
            epochs_run=history.epochs_run,
            stopped_early=history.stopped_early,
        )
    return history
