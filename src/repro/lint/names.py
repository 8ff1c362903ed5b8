"""Shared AST name-resolution helpers for deshlint rules.

Rules that reason about *what a call refers to* (R4 exception hygiene
resolves the classes it sees raised) need one primitive: expand a
``Name``/``Attribute`` chain against the module's import aliases into
a best-effort dotted path like ``numpy.random.randint``.  This is a
purely syntactic resolution — no imports are executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["ImportMap", "build_import_map", "dotted_name", "resolve_dotted"]


@dataclass
class ImportMap:
    """Local name -> dotted origin, from one module's import statements."""

    #: ``import numpy as np`` -> {"np": "numpy"}
    modules: dict[str, str] = field(default_factory=dict)
    #: ``from numpy.random import rand as r`` -> {"r": "numpy.random.rand"}
    names: dict[str, str] = field(default_factory=dict)
    #: dotted module path of the module itself (for relative imports)
    module_path: str = ""


def _resolve_relative(module_path: str, level: int, target: str) -> str:
    """Absolute dotted path of a ``from ..x import y`` target."""
    if level == 0:
        return target
    parts = module_path.split(".") if module_path else []
    # level 1 = current package; the module's own name is the last part.
    base = parts[: len(parts) - level]
    if target:
        base = base + target.split(".")
    return ".".join(base)


def build_import_map(tree: ast.AST, module_path: str = "") -> ImportMap:
    """Collect every import alias binding in *tree* (module level or not)."""
    imap = ImportMap(module_path=module_path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                imap.modules[local] = origin
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module_path, node.level, node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imap.names[local] = f"{base}.{alias.name}" if base else alias.name
    return imap


def dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_dotted(node: ast.AST, imap: ImportMap) -> "str | None":
    """Expand a Name/Attribute chain through the module's import aliases.

    ``np.random.randint`` with ``import numpy as np`` resolves to
    ``numpy.random.randint``; ``time()`` after ``from time import time``
    resolves to ``time.time``.  Unresolvable heads return the raw dotted
    text so callers can still pattern-match on suffixes.
    """
    raw = dotted_name(node)
    if raw is None:
        return None
    head, _, rest = raw.partition(".")
    if head in imap.names:
        origin = imap.names[head]
    elif head in imap.modules:
        origin = imap.modules[head]
    else:
        return raw
    return f"{origin}.{rest}" if rest else origin
