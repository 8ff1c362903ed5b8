"""Optimizers: SGD with momentum, RMSprop, Adam, plus gradient clipping.

Phase 1 uses plain stochastic gradient descent, phases 2-3 use RMSprop
(Table 5).  Adam is provided for the extension experiments.  Optimizers
mutate the parameter arrays *in place* (the arrays returned by each
layer's ``params()`` are live views), following the in-place-update
idiom from the hpc-parallel guide.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..errors import ConfigError

__all__ = ["SGD", "RMSprop", "Adam", "clip_gradients"]


def clip_gradients(grads: Mapping[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm <= *max_norm*.

    Returns the pre-clipping global norm.  Clipping by global norm (not
    per-array) preserves gradient direction, the standard recipe against
    exploding LSTM gradients.
    """
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be > 0, got {max_norm}")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for g in grads.values():
            g *= scale
    return norm


class _OptimizerBase:
    """Shared parameter validation and state management."""

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = learning_rate
        self._state: Dict[str, Dict[str, np.ndarray]] = {}

    def _slot(self, key: str, like: np.ndarray, *names: str) -> Dict[str, np.ndarray]:
        slot = self._state.get(key)
        if slot is None:
            slot = {n: np.zeros_like(like) for n in names}
            self._state[key] = slot
        return slot

    def state_dict(self) -> tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Snapshot the slot arrays and hyper-state for checkpointing.

        Returns ``(arrays, extra)`` where *arrays* flattens every slot
        to ``"<param key>##<slot name>"`` and *extra* holds the
        JSON-serializable hyper-state (the learning rate, which decay
        schedules mutate).  Subclasses with extra scalar state (Adam's
        per-key timestep) extend *extra*.
        """
        arrays = {
            f"{key}##{name}": arr
            for key, slot in self._state.items()
            for name, arr in slot.items()
        }
        return arrays, {"learning_rate": self.learning_rate}

    def load_state_dict(
        self, arrays: Mapping[str, np.ndarray], extra: Mapping[str, object]
    ) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._state = {}
        for flat, arr in arrays.items():
            key, sep, name = flat.rpartition("##")
            if not sep:
                raise ConfigError(f"malformed optimizer state key {flat!r}")
            self._state.setdefault(key, {})[name] = np.array(arr, copy=True)
        if "learning_rate" in extra:
            self.learning_rate = float(extra["learning_rate"])  # type: ignore[arg-type]

    def step(
        self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]
    ) -> None:
        if params.keys() != grads.keys():
            raise ConfigError(
                f"params/grads key mismatch: {sorted(params)} vs {sorted(grads)}"
            )
        for key in params:
            if params[key].shape != grads[key].shape:
                raise ConfigError(
                    f"shape mismatch for {key}: "
                    f"{params[key].shape} vs {grads[key].shape}"
                )
            self._update(key, params[key], grads[key])

    def _update(self, key: str, p: np.ndarray, g: np.ndarray) -> None:
        raise NotImplementedError


class SGD(_OptimizerBase):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 0.1, momentum: float = 0.0):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum

    def _update(self, key: str, p: np.ndarray, g: np.ndarray) -> None:
        if self.momentum == 0.0:
            p -= self.learning_rate * g
            return
        slot = self._slot(key, p, "v")
        v = slot["v"]
        v *= self.momentum
        v -= self.learning_rate * g
        p += v


class RMSprop(_OptimizerBase):
    """RMSprop: per-parameter learning rates from an EMA of squared grads."""

    def __init__(
        self, learning_rate: float = 0.001, rho: float = 0.9, eps: float = 1e-8
    ):
        super().__init__(learning_rate)
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"rho must be in (0, 1), got {rho}")
        if eps <= 0:
            raise ConfigError(f"eps must be > 0, got {eps}")
        self.rho = rho
        self.eps = eps

    def _update(self, key: str, p: np.ndarray, g: np.ndarray) -> None:
        slot = self._slot(key, p, "s")
        s = slot["s"]
        s *= self.rho
        # s += (1 - rho) * g * g;  p -= lr * g / (sqrt(s) + eps), with
        # the same operations in the same order, in two temporary arrays.
        tmp = g * (1.0 - self.rho)
        tmp *= g
        s += tmp
        np.sqrt(s, out=tmp)
        tmp += self.eps
        step = g * self.learning_rate
        step /= tmp
        p -= step


class Adam(_OptimizerBase):
    """Adam with bias correction (extension experiments only)."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(learning_rate)
        for name, value in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        if eps <= 0:
            raise ConfigError(f"eps must be > 0, got {eps}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._t: Dict[str, int] = {}

    def state_dict(self) -> tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Snapshot slots plus the per-key bias-correction timesteps."""
        arrays, extra = super().state_dict()
        extra["t"] = dict(self._t)
        return arrays, extra

    def load_state_dict(
        self, arrays: Mapping[str, np.ndarray], extra: Mapping[str, object]
    ) -> None:
        """Restore slots and the per-key bias-correction timesteps."""
        super().load_state_dict(arrays, extra)
        self._t = {k: int(v) for k, v in dict(extra.get("t", {})).items()}

    def _update(self, key: str, p: np.ndarray, g: np.ndarray) -> None:
        slot = self._slot(key, p, "m", "v")
        t = self._t.get(key, 0) + 1
        self._t[key] = t
        m, v = slot["m"], slot["v"]
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
