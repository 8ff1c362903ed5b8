"""The pluggable deshlint rule engine: rule protocol + registry.

A rule is a subclass of :class:`Rule` registered with :func:`register`.
Rules see the repo through :class:`ModuleInfo` snapshots (path, source,
parsed AST) and report :class:`~repro.lint.findings.Finding` objects
from one hook, :meth:`Rule.check_module`, which checks each module
independently.

Importing this package loads the built-in rules R4 and R5 and the
dataflow rule F4; external code can register additional rules
before calling the engine.  Every rule carries a ``category`` —
``"syntactic"`` for AST pattern checks, ``"dataflow"`` for the
CFG/fixpoint analyses under :mod:`repro.lint.flow` — which the CLI uses
to group ``--rules list`` output and the benchmark uses to time the
passes separately.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Type

from ...errors import LintError
from ..findings import Finding, RelatedSite

__all__ = [
    "CATEGORIES",
    "ModuleInfo",
    "Rule",
    "register",
    "all_rules",
    "get_rules",
    "rules_by_category",
]

#: Valid rule categories, in display order.
CATEGORIES = ("syntactic", "dataflow")


@dataclass
class ModuleInfo:
    """One parsed source module as seen by the rules."""

    path: str
    source: str
    tree: ast.Module
    module_path: str = ""  # dotted import path, when derivable

    @property
    def lines(self) -> list[str]:
        """Source split into lines (1-indexed access via ``line(n)``)."""
        if not hasattr(self, "_lines"):
            self._lines = self.source.splitlines()
        return self._lines

    def line(self, n: int) -> str:
        """Text of 1-indexed source line *n* ('' when out of range)."""
        return self.lines[n - 1] if 1 <= n <= len(self.lines) else ""

    def finding(
        self,
        node: ast.AST,
        rule: str,
        message: str,
        related: tuple = (),
    ) -> Finding:
        """Build a finding anchored at *node*."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=self.path,
            line=line,
            col=col,
            rule=rule,
            message=message,
            snippet=self.line(line),
            related=related,
        )

    def site(self, node: ast.AST, message: str) -> "RelatedSite":
        """Build a :class:`RelatedSite` anchored at *node*."""
        return RelatedSite(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class Rule:
    """Base class for deshlint rules."""

    #: Short stable identifier used in findings and suppressions.
    id: str = ""
    #: One-line description shown by ``repro lint --rules list`` and docs.
    summary: str = ""
    #: Analysis family: "syntactic" (AST patterns) or "dataflow" (CFG
    #: fixpoint analyses).
    category: str = "syntactic"

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Findings derivable from one module in isolation."""
        return ()


_REGISTRY: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry.

    Rejects duplicate ids and unknown categories at registration time —
    a colliding id would silently shadow an existing rule's findings
    and suppressions.
    """
    if not cls.id:
        raise LintError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise LintError(f"duplicate rule id {cls.id!r}")
    if cls.category not in CATEGORIES:
        raise LintError(
            f"rule {cls.id!r} has unknown category {cls.category!r} "
            f"(have: {', '.join(CATEGORIES)})"
        )
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rules(ids: Iterable[str]) -> list[Rule]:
    """Fresh instances of the named rules; unknown or repeated ids raise.

    A repeated id would run the rule twice and double-report every
    finding, so ``--rules R4,R4`` is a usage error, not a no-op.
    """
    out = []
    seen = set()
    for rule_id in ids:
        if rule_id not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise LintError(f"unknown rule {rule_id!r} (have: {known})")
        if rule_id in seen:
            raise LintError(f"rule {rule_id!r} requested more than once")
        seen.add(rule_id)
        out.append(_REGISTRY[rule_id]())
    return out


def rules_by_category() -> dict[str, list[Rule]]:
    """Fresh rule instances grouped by category, ids sorted within each."""
    out: dict[str, list[Rule]] = {category: [] for category in CATEGORIES}
    for rule in all_rules():
        out[rule.category].append(rule)
    return out


# Built-in rules register themselves on import.  The dataflow rule F4
# lives under repro.lint.flow (next to the CFG/solver machinery it is
# built on) but hooks into the same registry.
from . import api, exceptions  # noqa: E402,F401
from ..flow import atomicity  # noqa: E402,F401
