"""R2 — stage purity.

The fingerprint cache (PR 2) assumes a stage's output is a pure
function of ``(config payload, upstream fingerprints, data
fingerprint)``.  Any wall-clock read, environment read, or OS-level
entropy inside code reachable from a ``Stage.run`` implementation makes
a cached artifact diverge from a fresh run — silently, because the
fingerprint cannot see it.  Likewise, a ``run`` that mutates its
:class:`~repro.pipeline.stage.StageContext` (config, records, upstream
inputs) poisons every stage downstream of it.

The reachability analysis is a deliberately *over-approximate* static
call graph: bare names, ``self.``/class methods and imported project
functions resolve precisely; an unresolvable ``obj.meth(...)`` call
conservatively links to every project method named ``meth``.  False
positives are expected to be rare and are silenced with an explicit
``# deshlint: allow[R2] reason`` at the impure call site.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..findings import Finding
from ..names import ImportMap, build_import_map, resolve_dotted
from . import ModuleInfo, Rule, register

__all__ = ["StagePurityRule"]

#: Dotted call targets that poison fingerprint-cache correctness.
_FORBIDDEN_CALLS = {
    "time.time": "reads the wall clock",
    "time.time_ns": "reads the wall clock",
    "datetime.datetime.now": "reads the wall clock",
    "datetime.datetime.utcnow": "reads the wall clock",
    "datetime.datetime.today": "reads the wall clock",
    "datetime.date.today": "reads the wall clock",
    "os.environ": "reads the process environment",
    "os.getenv": "reads the process environment",
    "os.environb": "reads the process environment",
    "os.urandom": "draws OS entropy",
    "uuid.uuid4": "draws OS entropy",
    "secrets.token_bytes": "draws OS entropy",
    "secrets.token_hex": "draws OS entropy",
}

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "sort", "reverse", "add", "discard",
}


@dataclass
class _Func:
    """One function/method definition node plus its resolution context."""

    qualname: str  # "module:Class.method" or "module:function"
    name: str
    cls: "str | None"
    module: ModuleInfo
    node: ast.AST
    imap: ImportMap
    calls: Set[str] = field(default_factory=set)  # resolved qualnames
    unresolved_methods: Set[str] = field(default_factory=set)
    forbidden: List[Tuple[ast.AST, str, str]] = field(default_factory=list)


def _class_defs(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node


def _functions_of(module: ModuleInfo, imap: ImportMap) -> List[_Func]:
    """Top-level functions and class methods of one module."""
    out: List[_Func] = []
    mod = module.module_path or module.path
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(
                _Func(f"{mod}:{node.name}", node.name, None, module, node, imap)
            )
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append(
                        _Func(
                            f"{mod}:{node.name}.{item.name}",
                            item.name,
                            node.name,
                            module,
                            item,
                            imap,
                        )
                    )
    return out


def _stage_classes(modules: Sequence[ModuleInfo]) -> Set[Tuple[str, str]]:
    """(module, class) pairs transitively deriving from a ``Stage`` base.

    Resolution is by base-class *name* iterated to a fixpoint, which is
    robust to import renames without needing full type inference.
    """
    stage_names = {"Stage"}
    by_module: Dict[str, List[ast.ClassDef]] = {}
    for m in modules:
        by_module[m.module_path or m.path] = list(_class_defs(m.tree))
    result: Set[Tuple[str, str]] = set()
    changed = True
    while changed:
        changed = False
        for mod, classes in by_module.items():
            for cls in classes:
                if (mod, cls.name) in result:
                    continue
                for base in cls.bases:
                    base_name = base.attr if isinstance(base, ast.Attribute) else (
                        base.id if isinstance(base, ast.Name) else None
                    )
                    if base_name in stage_names:
                        result.add((mod, cls.name))
                        stage_names.add(cls.name)
                        changed = True
                        break
    return result


def _collect_calls(func: _Func, project: "_Project") -> None:
    """Populate ``func.calls`` / ``unresolved_methods`` / ``forbidden``."""
    for node in ast.walk(func.node):
        if isinstance(node, (ast.Attribute, ast.Name)):
            dotted = resolve_dotted(node, func.imap)
            if dotted in _FORBIDDEN_CALLS:
                func.forbidden.append((node, dotted, _FORBIDDEN_CALLS[dotted]))
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name):
            resolved = project.resolve_name(func, target.id)
            if resolved:
                func.calls.update(resolved)
        elif isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and func.cls is not None
            ):
                qn = f"{func.module.module_path or func.module.path}:{func.cls}.{target.attr}"
                if qn in project.funcs:
                    func.calls.add(qn)
                continue
            dotted = resolve_dotted(target, func.imap)
            resolved = project.resolve_dotted_call(dotted) if dotted else set()
            if resolved:
                func.calls.update(resolved)
            else:
                func.unresolved_methods.add(target.attr)


class _Project:
    """Whole-program index: functions, classes, and name resolution."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.funcs: Dict[str, _Func] = {}
        self.by_method_name: Dict[str, Set[str]] = {}
        self.class_index: Set[Tuple[str, str]] = set()
        for m in modules:
            mod = m.module_path or m.path
            imap = build_import_map(m.tree, mod)
            for cls in _class_defs(m.tree):
                self.class_index.add((mod, cls.name))
            for func in _functions_of(m, imap):
                self.funcs[func.qualname] = func
                if func.cls is not None:
                    self.by_method_name.setdefault(func.name, set()).add(
                        func.qualname
                    )
        for func in self.funcs.values():
            _collect_calls(func, self)

    # ------------------------------------------------------------------
    def resolve_name(self, caller: _Func, name: str) -> Set[str]:
        """A bare-name call: same-module function, import, or class init."""
        mod = caller.module.module_path or caller.module.path
        if f"{mod}:{name}" in self.funcs:
            return {f"{mod}:{name}"}
        if (mod, name) in self.class_index:
            return self._class_init(mod, name)
        origin = caller.imap.names.get(name)
        if origin:
            return self.resolve_dotted_call(origin) or set()
        return set()

    def resolve_dotted_call(self, dotted: str) -> Set[str]:
        """``pkg.mod.func`` or ``pkg.mod.Class`` -> project qualnames."""
        if "." not in dotted:
            return set()
        mod, _, attr = dotted.rpartition(".")
        if f"{mod}:{attr}" in self.funcs:
            return {f"{mod}:{attr}"}
        if (mod, attr) in self.class_index:
            return self._class_init(mod, attr)
        return set()

    def _class_init(self, mod: str, cls: str) -> Set[str]:
        qn = f"{mod}:{cls}.__init__"
        return {qn} if qn in self.funcs else set()

    # ------------------------------------------------------------------
    def reachable_from(self, roots: Iterable[str]) -> Dict[str, List[str]]:
        """BFS closure over the call graph; qualname -> example chain."""
        chains: Dict[str, List[str]] = {}
        queue = deque()
        for root in roots:
            chains[root] = [root]
            queue.append(root)
        while queue:
            current = queue.popleft()
            func = self.funcs[current]
            targets = set(func.calls)
            for meth in func.unresolved_methods:
                targets.update(self.by_method_name.get(meth, ()))
            for target in targets:
                if target not in chains and target in self.funcs:
                    chains[target] = chains[current] + [target]
                    queue.append(target)
        return chains


def _ctx_param(node: ast.AST) -> "str | None":
    """Name of the context parameter of a ``run(self, ctx)`` method."""
    args = getattr(node, "args", None)
    if args is None:
        return None
    names = [a.arg for a in args.args]
    if len(names) >= 2 and names[0] == "self":
        return names[1]
    return None


def _rooted_in(node: ast.AST, name: str) -> bool:
    """Whether an attribute/subscript chain hangs off Name *name*."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == name


@register
class StagePurityRule(Rule):
    """Code reachable from ``Stage.run`` must be deterministic and side-effect free."""

    id = "R2"
    summary = (
        "no wall-clock / environment / OS-entropy reads reachable from "
        "Stage.run; run() must not mutate its StageContext"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterable[Finding]:
        """Reachability pass from every Stage.run over the project call graph."""
        project = _Project(modules)
        stage_classes = _stage_classes(modules)
        roots = []
        run_nodes = []
        for mod, cls in stage_classes:
            qn = f"{mod}:{cls}.run"
            if qn in project.funcs:
                roots.append(qn)
                run_nodes.append(project.funcs[qn])
        if not roots:
            return []
        findings: List[Finding] = []
        chains = project.reachable_from(roots)
        reported: Set[Tuple[str, int, str]] = set()
        for qualname in sorted(chains):
            func = project.funcs[qualname]
            for node, dotted, why in func.forbidden:
                site = (func.module.path, getattr(node, "lineno", 0), dotted)
                if site in reported:
                    continue
                reported.add(site)
                chain = " -> ".join(q.split(":", 1)[1] for q in chains[qualname])
                findings.append(
                    func.module.finding(
                        node,
                        self.id,
                        f"{dotted} {why}; reachable from Stage.run "
                        f"via {chain} — impure stages poison the "
                        "fingerprint cache",
                    )
                )
        for func in run_nodes:
            findings.extend(self._mutation_findings(func))
        return findings

    def _mutation_findings(self, func: _Func) -> List[Finding]:
        """Flag writes to the StageContext inside one run() body."""
        ctx = _ctx_param(func.node)
        if ctx is None:
            return []
        out: List[Finding] = []
        for node in ast.walk(func.node):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and _rooted_in(target, ctx):
                    out.append(
                        func.module.finding(
                            node,
                            self.id,
                            f"Stage.run mutates its context "
                            f"({ast.unparse(target)}); stages must treat "
                            "config/records/inputs as read-only",
                        )
                    )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and _rooted_in(node.func.value, ctx)
            ):
                out.append(
                    func.module.finding(
                        node,
                        self.id,
                        f"Stage.run calls mutating "
                        f"{ast.unparse(node.func)}(); stages must treat "
                        "config/records/inputs as read-only",
                    )
                )
        return out
