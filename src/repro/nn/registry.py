"""The model zoo: named sequence-model backbones behind one registry.

Desh's phase-1 classifier and phase-2/3 regressor are both "backbone +
head" models; the backbone is the part that varies across the zoo.  A
:class:`ModelFamily` couples a backbone class (anything implementing
``forward`` / ``forward_infer`` / ``backward`` / ``params`` / ``grads``
/ ``zero_grad`` over ``(B, T, D) -> (B, T, H)``) with its name and a
hyperparameter schema; :func:`build_backbone` is the single constructor
the sequence models call, keyed by ``DeshConfig.model`` / the CLI
``--model`` flag.

Two families ship built in:

======== ============================================================
``lstm`` the paper's stacked LSTM with BPTT (Table 5) — the default
``tcn``  causal dilated temporal convolutions with residual blocks;
         ``kernel_size`` (default 3) sets the taps per convolution,
         and dilation doubles per level
======== ============================================================

Every family must pass the shared conformance suite
(``tests/test_nn_conformance.py``): finite-difference gradient checks
on all parameters, loss-decreases training smoke, bit-identical
save/load round trips, online-``update`` support, and declared tensor
contracts on every forward/backward.  Add a family to the registry only
once those tests pass against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from ..errors import ConfigError
from .lstm import StackedLSTM
from .tcn import TCNBackbone

__all__ = [
    "HyperParam",
    "ModelFamily",
    "get_model",
    "registered_models",
    "build_backbone",
]


@dataclass(frozen=True)
class HyperParam:
    """One family-specific hyperparameter: its name and default."""

    name: str
    default: object


@dataclass(frozen=True)
class ModelFamily:
    """One registered backbone family.

    ``backbone`` is constructed as
    ``backbone(input_size, hidden_size, num_layers, rng, **params)``
    where ``params`` are the schema defaults merged with the caller's
    overrides (``DeshConfig.model_params``).
    """

    name: str
    backbone: type
    params: Tuple[HyperParam, ...] = ()

    def resolve_params(self, overrides: Mapping[str, object]) -> dict:
        """Schema defaults merged with *overrides*; rejects unknown keys."""
        known = {p.name: p.default for p in self.params}
        for key in overrides:
            if key not in known:
                accepted = ", ".join(sorted(known)) or "(none)"
                raise ConfigError(
                    f"model {self.name!r} has no hyperparameter {key!r} "
                    f"(accepts: {accepted})"
                )
        known.update(overrides)
        return known

    def build(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng: np.random.Generator,
        overrides: Mapping[str, object] | None = None,
    ):
        """Construct this family's backbone."""
        params = self.resolve_params(overrides or {})
        return self.backbone(input_size, hidden_size, num_layers, rng, **params)


_REGISTRY: Dict[str, ModelFamily] = {
    family.name: family
    for family in (
        ModelFamily(name="lstm", backbone=StackedLSTM),
        ModelFamily(
            name="tcn",
            backbone=TCNBackbone,
            params=(HyperParam("kernel_size", 3),),
        ),
    )
}


def get_model(name: str) -> ModelFamily:
    """The registered family called *name*.

    Raises :class:`ConfigError` naming the registered families for an
    unknown name — the crisp failure mode for garbled model manifests.
    """
    family = _REGISTRY.get(name)
    if family is None:
        known = ", ".join(registered_models())
        raise ConfigError(
            f"unknown model {name!r} (registered models: {known})"
        )
    return family


def registered_models() -> Tuple[str, ...]:
    """All registered family names, sorted."""
    return tuple(sorted(_REGISTRY))


def build_backbone(
    name: str,
    input_size: int,
    hidden_size: int,
    num_layers: int,
    rng: np.random.Generator,
    params: Mapping[str, object] | None = None,
):
    """Construct the named family's backbone (the models' entry point)."""
    return get_model(name).build(
        input_size, hidden_size, num_layers, rng, params
    )
