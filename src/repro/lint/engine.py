"""deshlint driver: discover files, run rules, apply suppressions.

:func:`lint_paths` is the whole programmatic API surface: it walks the
given files/directories, parses each module once, runs every registered
rule over each module and drops findings covered by inline
``# deshlint: allow[RULE] reason`` comments.  :func:`lint_source` wraps
a single in-memory snippet — the unit-test entry point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from ..errors import LintError
from .findings import Finding
from .rules import ModuleInfo, Rule, all_rules
from .suppressions import parse_suppressions

__all__ = [
    "LintReport",
    "lint_paths",
    "lint_modules",
    "lint_source",
    "load_modules",
]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    modules: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run produced zero findings."""
        return not self.findings

    def to_dict(self) -> dict:
        """JSON-serializable form (used by ``repro lint --json``)."""
        return {
            "ok": self.ok,
            "modules": self.modules,
            "findings": [f.to_dict() for f in self.findings],
        }


def _iter_files(paths: Iterable["str | Path"]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.append(candidate)
        elif path.is_file():
            files.append(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    return files


def _module_path(path: Path) -> str:
    """Dotted import path for *path*, anchored at the innermost package root."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts)


def load_modules(paths: Iterable["str | Path"]) -> "tuple[list[ModuleInfo], list[Finding]]":
    """Parse every Python file under *paths*; unparsable files become findings."""
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    for path in _iter_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule="SYNTAX",
                    message=f"cannot parse: {exc.msg}",
                    snippet=(exc.text or "").rstrip(),
                )
            )
            continue
        modules.append(
            ModuleInfo(
                path=str(path),
                source=source,
                tree=tree,
                module_path=_module_path(path),
            )
        )
    return modules, errors


def _run_rules(
    modules: Sequence[ModuleInfo], rules: Sequence[Rule]
) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        for rule in rules:
            findings.extend(rule.check_module(module))
    return findings


def _apply_suppressions(
    modules: Sequence[ModuleInfo], findings: List[Finding], known: "set[str]"
) -> List[Finding]:
    indexes = {m.path: parse_suppressions(m.source) for m in modules}
    kept: List[Finding] = []
    for f in findings:
        index = indexes.get(f.path)
        if index is not None and index.covers(f.line, f.rule):
            continue
        kept.append(f)
    for module in modules:
        kept.extend(
            indexes[module.path].malformed(module.path, module.lines, known)
        )
    return kept


def lint_modules(
    modules: Sequence[ModuleInfo],
    *,
    rules: Optional[Sequence[Rule]] = None,
    parse_errors: Sequence[Finding] = (),
) -> LintReport:
    """Run *rules* over already-parsed modules (the core of the engine)."""
    rules = list(rules) if rules is not None else all_rules()
    findings = list(parse_errors)
    findings.extend(_run_rules(modules, rules))
    # An ``allow`` is judged against the whole registry, not the rules
    # that ran, so ``--rules R4`` does not flag a valid ``allow[F4]``.
    known = {rule.id for rule in all_rules()} | {rule.id for rule in rules}
    findings = _apply_suppressions(modules, findings, known)
    findings.sort()
    return LintReport(findings=findings, modules=len(modules))


def lint_paths(
    paths: Iterable["str | Path"],
    *,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every Python file under *paths* with the registered rules."""
    modules, parse_errors = load_modules(paths)
    return lint_modules(modules, rules=rules, parse_errors=parse_errors)


def lint_source(
    source: str,
    *,
    path: str = "<snippet>",
    module_path: str = "snippet",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one in-memory source snippet; returns its findings.

    The snippet is parsed as a stand-alone module with the dotted path
    *module_path*.  Raises :class:`LintError` when the snippet does not
    parse — unit tests should feed valid Python.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"snippet does not parse: {exc}") from exc
    module = ModuleInfo(
        path=path, source=source, tree=tree, module_path=module_path
    )
    report = lint_modules([module], rules=rules)
    return report.findings
