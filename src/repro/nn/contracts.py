"""Runtime tensor contracts: shape/dtype decorators for layer methods.

deshlint's static rules cannot see array shapes, so the nn substrate
complements them with *runtime* contracts — a declarative spec attached
to each ``forward``/``backward``::

    @tensor_contract("(B, T, input_size):float -> (B, T, hidden_size):float")
    def forward(self, x): ...

The spec grammar is ``input -> output`` where each side is ``None`` or
a single ``(dim, dim, ...)`` group with an optional ``:float``/``:int``
dtype; the input group checks the first positional argument, the output
group the return value, and both share one binding scope.  A dim is
an integer literal, ``...`` (any leading dims, first position only),
or an identifier; identifiers resolve against instance attributes when
the layer defines them (``in_dim``, ``hidden_size``) and otherwise
bind on first use, so ``B``/``T`` enforce *consistency* between input
and output without pinning concrete sizes.

Contracts are assertions, not error handling: like ``assert``, the
whole checking layer compiles out under ``python -O`` (``__debug__``
false means :func:`tensor_contract` returns the function untouched at
decoration time — zero per-call overhead).  Violations raise
:class:`~repro.errors.ContractError`, a :class:`~repro.errors.ShapeError`
subclass, so existing shape-guard handling keeps working.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import ContractError

__all__ = ["TensorSpec", "parse_spec", "tensor_contract"]

_SIDE_RE = re.compile(r"^\((?P<dims>[^)]*)\)(?::(?P<dtype>\w+))?$")

_DTYPES = {
    "float": np.floating,
    "int": np.integer,
    "bool": np.bool_,
}


@dataclass(frozen=True)
class TensorSpec:
    """One side of a contract: expected dims and dtype family.

    ``dims`` holds ``...`` (Ellipsis), int literals, or identifier
    strings; ``ellipsis_lead`` records whether the spec opened with
    ``...`` (matching any leading shape prefix).  ``dtype`` is an
    abstract NumPy scalar base class or ``None`` for "any".
    """

    dims: Tuple[object, ...]
    ellipsis_lead: bool
    dtype: Optional[type]

    def describe(self) -> str:
        """Human-readable form used in violation messages."""
        parts = ["..."] if self.ellipsis_lead else []
        parts += [str(d) for d in self.dims]
        suffix = ""
        for name, klass in _DTYPES.items():
            if klass is self.dtype:
                suffix = f":{name}"
        return f"({', '.join(parts)}){suffix}"


def _parse_side(text: str) -> Optional[TensorSpec]:
    text = text.strip()
    if text in ("none", "None"):
        return None
    match = _SIDE_RE.match(text)
    if match is None:
        raise ContractError(f"bad tensor spec side {text!r}")
    dtype = None
    if match.group("dtype"):
        if match.group("dtype") not in _DTYPES:
            raise ContractError(
                f"unknown dtype {match.group('dtype')!r} "
                f"(have: {', '.join(sorted(_DTYPES))})"
            )
        dtype = _DTYPES[match.group("dtype")]
    raw = [d.strip() for d in match.group("dims").split(",") if d.strip()]
    ellipsis_lead = False
    dims: list[object] = []
    for i, dim in enumerate(raw):
        if dim == "...":
            if i != 0:
                raise ContractError(
                    f"'...' is only allowed in the first position: {text!r}"
                )
            ellipsis_lead = True
        elif dim.lstrip("-").isdigit():
            dims.append(int(dim))
        elif dim.isidentifier():
            dims.append(dim)
        else:
            raise ContractError(f"bad dim {dim!r} in tensor spec {text!r}")
    return TensorSpec(tuple(dims), ellipsis_lead, dtype)


def parse_spec(
    spec: str,
) -> Tuple[Optional[TensorSpec], Optional[TensorSpec]]:
    """Parse ``"input -> output"`` into per-side specs.

    Each element of the returned pair is ``None`` or a
    :class:`TensorSpec`.
    """
    head, arrow, tail = spec.partition("->")
    if not arrow:
        raise ContractError(f"bad tensor contract {spec!r}")
    try:
        return _parse_side(head), _parse_side(tail)
    except ContractError as exc:
        raise ContractError(f"bad tensor contract {spec!r}: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _dtype_ok(dtype: np.dtype, family: type) -> bool:
    """``np.issubdtype(dtype, family)``, memoized per (dtype, family)."""
    return bool(np.issubdtype(dtype, family))


def _violation(
    side: str, owner: object, func_name: str, message: str
) -> ContractError:
    return ContractError(f"{type(owner).__name__}.{func_name} {side}: {message}")


def _check(
    side: str,
    spec: Optional[TensorSpec],
    value: object,
    owner: object,
    func_name: str,
    bindings: dict,
) -> None:
    """Validate one array against one spec, updating dim bindings."""
    if spec is None:
        if side == "output" and value is not None:
            raise _violation(
                side, owner, func_name, f"expected None, got {type(value).__name__}"
            )
        return
    arr = np.asarray(value)
    if spec.dtype is not None and not _dtype_ok(arr.dtype, spec.dtype):
        raise _violation(
            side, owner, func_name,
            f"dtype {arr.dtype} does not satisfy {spec.describe()}",
        )
    shape = arr.shape
    if spec.ellipsis_lead:
        if len(shape) < len(spec.dims):
            raise _violation(
                side, owner, func_name,
                f"shape {shape} too short for {spec.describe()}",
            )
        lead, tail = shape[: len(shape) - len(spec.dims)], shape[len(shape) - len(spec.dims):]
        prior = bindings.setdefault("...", lead)
        if prior != lead:
            raise _violation(
                side, owner, func_name,
                f"leading dims {lead} != bound {prior} for {spec.describe()}",
            )
    else:
        if len(shape) != len(spec.dims):
            raise _violation(
                side, owner, func_name,
                f"shape {shape} has wrong rank for {spec.describe()}",
            )
        tail = shape
    for dim, actual in zip(spec.dims, tail):
        if isinstance(dim, int):
            expected = dim
        else:
            if hasattr(owner, dim):
                expected = int(getattr(owner, dim))
            elif dim in bindings:
                expected = bindings[dim]
            else:
                bindings[dim] = actual
                continue
        if actual != expected:
            raise _violation(
                side, owner, func_name,
                f"shape {shape} violates {spec.describe()} "
                f"(dim {dim} should be {expected}, got {actual})",
            )


def tensor_contract(spec: str) -> Callable:
    """Decorator enforcing *spec* on a method's first array argument.

    The input spec applies to the first positional argument after
    ``self``; the output spec to the return value.  The wrapper keeps
    the spec string as ``__tensor_contract__``.  Under ``python -O``
    the decorator is the identity function (contracts compile out).
    """
    if not __debug__:  # pragma: no cover - exercised via subprocess test
        return lambda func: func
    inp, out = parse_spec(spec)  # parse once, at decoration time

    def decorate(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            bindings: dict = {}
            if inp is not None and args:
                _check("input", inp, args[0], self, func.__name__, bindings)
            result = func(self, *args, **kwargs)
            _check("output", out, result, self, func.__name__, bindings)
            return result

        wrapper.__tensor_contract__ = spec
        return wrapper

    return decorate

