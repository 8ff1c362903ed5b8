"""Static view of the nn layers' ``@tensor_contract`` specs.

F1's transfer functions are the *declared* contracts on
``Dense``/``Embedding``/``LSTMCell``/``StackedLSTM``/``BatchedScorer``
and the TCN kernels (``CausalConv1d``/``TemporalBlock``/``TCNBackbone``):
what a layer method promises about its input/output shapes.  This
module harvests them once — via
:func:`repro.nn.contracts.declared_contracts`, which works under
``python -O`` too — together with each constructor's parameter names,
so a call site like ``Dense(4, 8, rng)`` can bind the spec identifiers
``in_dim=4, out_dim=8`` positionally.

Harvesting imports :mod:`repro.nn`; when that import is unavailable in
an embedding environment the table is simply empty and F1 degrades to
checking only contracts declared inline in the linted source.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "LayerSpec",
    "builtin_layer_specs",
    "parse_contract",
    "resolve_layer",
    "specs_by_short_name",
]


@dataclass(frozen=True)
class LayerSpec:
    """One layer class as the shape analysis sees it."""

    qualname: str  # e.g. "repro.nn.layers.Dense"
    name: str  # e.g. "Dense"
    init_params: Tuple[str, ...]  # ctor params after self, in order
    methods: Mapping[str, object]  # method -> (input spec, output spec)


def parse_contract(spec: str):
    """Parse a contract string into ``(input, output)`` TensorSpecs.

    Either side may itself be a *tuple* of TensorSpecs for multi-group
    contracts (batched stateful methods like ``LSTMCell.step_batch``).
    Returns ``None`` for a malformed spec instead of raising — a broken
    inline contract is the runtime layer's problem to report, not the
    linter's.
    """
    try:
        from ...nn.contracts import parse_spec

        return parse_spec(spec)
    except Exception:  # deshlint: allow[R4] malformed spec: skip, don't crash lint
        return None


@lru_cache(maxsize=1)
def builtin_layer_specs() -> Dict[str, LayerSpec]:
    """The known nn layer classes, keyed by qualified class name."""
    try:
        from ...nn.batched import BatchedScorer
        from ...nn.contracts import declared_contracts
        from ...nn.layers import Dense, Embedding
        from ...nn.lstm import LSTMCell, StackedLSTM
        from ...nn.tcn import CausalConv1d, TCNBackbone, TemporalBlock
    except Exception:  # deshlint: allow[R4] optional table: lint must run without numpy
        return {}
    table: Dict[str, LayerSpec] = {}
    for cls in (
        Dense,
        Embedding,
        LSTMCell,
        StackedLSTM,
        BatchedScorer,
        CausalConv1d,
        TemporalBlock,
        TCNBackbone,
    ):
        methods = {}
        for method, spec in declared_contracts(cls).items():
            parsed = parse_contract(spec)
            if parsed is not None:
                methods[method] = parsed
        params = tuple(
            name
            for name in inspect.signature(cls.__init__).parameters
            if name != "self"
        )
        qualname = f"{cls.__module__}.{cls.__name__}"
        table[qualname] = LayerSpec(
            qualname=qualname, name=cls.__name__, init_params=params, methods=methods
        )
    return table


def specs_by_short_name() -> Dict[str, LayerSpec]:
    """The builtin table re-keyed by bare class name (``Dense``)."""
    return {spec.name: spec for spec in builtin_layer_specs().values()}


def resolve_layer(dotted: Optional[str]) -> Optional[LayerSpec]:
    """The :class:`LayerSpec` a resolved dotted constructor name denotes.

    Matches either the exact qualified name or a dotted path whose last
    component is a known layer's class name (``repro.nn.Dense``,
    ``nn.layers.Dense`` and plain ``Dense`` all resolve to ``Dense``).
    """
    if not dotted:
        return None
    table = builtin_layer_specs()
    if dotted in table:
        return table[dotted]
    return specs_by_short_name().get(dotted.rpartition(".")[2])
