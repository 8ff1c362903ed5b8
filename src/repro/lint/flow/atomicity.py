"""F4 — atomicity: self.* windows that span an await without a lock.

asyncio gives every coroutine run-to-completion semantics *between*
await points: code with no await in the middle is atomic with respect
to every other task on the loop.  The flip side is that any
check-then-act or read-modify-write on shared ``self.*`` state that
*does* cross an await is a race — another task can observe or mutate
the attribute inside the window, and the post-await write acts on a
stale read.  These are exactly the bugs a soak test almost never
reproduces (the interleaving is rare) but a prover can rule out.

The analysis is a lockset-flavoured forward dataflow over each
``async def`` method (functions without a ``self`` receiver have no
cross-task shared state and are skipped):

* a **read** of ``self.attr`` opens a window: the state records the
  read site together with the set of locks lexically held there;
* a statement whose head contains an await (``is_yield_point``) marks
  every open window as *crossed*, recording the await site and the
  locks held across it;
* a **write** to ``self.attr`` (assignment/del/augmented assignment
  targets, or a mutator-method call like ``self.items.append(...)``)
  closes the window.  If the window was crossed and no single lock was
  held at the read, across the await, *and* at the write, the write is
  reported with the full interleaving window (read site + await site)
  as related locations.  Either way the write kills the window — the
  next read starts a fresh one.

Locks are recognized lexically: ``async with self._lock:`` regions
where ``_lock`` is an attribute assigned ``asyncio.Lock()`` /
``Condition()`` / ``Semaphore()`` somewhere in the class (or whose
name contains ``lock``/``mutex`` as a fallback).  A lock held across
the whole window proves atomicity; a lock released and re-acquired
around the await does not, and still fires — that is the point.

Deliberately **intra**procedural: a ``self.helper()`` call is treated
as a read of ``helper``, not inlined.  Inlining over-reports optimistic
retry loops (``ShardQueue.offer_wait``) many times over; the single
annotated justification at the retry site documents the pattern once.
Single-writer designs that the analysis cannot see are the other
intended use of ``# deshlint: allow[F4] <why>``.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..findings import Finding
from ..rules import ModuleInfo, Rule, register
from .cfg import Block, build_cfg, head_awaits
from .solver import Domain, solve

__all__ = ["AtomicityRule"]

#: asyncio primitives whose instances act as locks for the analysis.
_LOCK_FACTORIES = {"Lock", "Condition", "Semaphore", "BoundedSemaphore"}

#: Method names that mutate their receiver in place: the container
#: mutators plus the serve-layer vocabulary.
_WRITE_METHODS = {
    "append", "appendleft", "extend", "extendleft", "insert", "remove",
    "pop", "popleft", "popitem", "clear", "update", "setdefault", "add",
    "discard", "sort", "reverse", "record", "reserve", "release",
    "commit", "commit_reserved", "set", "put", "put_nowait",
}

# A window entry: (read_line, read_col, read_locks, await_line, await_locks)
# where await_line is None until the window crosses a yield point.
_Entry = Tuple[int, int, FrozenSet[str], Optional[int], Optional[FrozenSet[str]]]
# Abstract state: first self-attribute component -> open windows.
_State = Dict[str, FrozenSet[_Entry]]


def _self_attr_chain(node: ast.AST) -> Optional[str]:
    """First attribute component of a ``self.x...`` chain, else None."""
    parts: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return parts[-1]
    return None


def _head_nodes(stmt: ast.stmt) -> List[ast.AST]:
    """AST nodes evaluated by *stmt*'s block-resident head.

    Mirrors :func:`~.cfg.head_awaits`: for compound statements only the
    controlling expression lives in the head block — the body statements
    are separate CFG blocks and must not be scanned twice.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: List[ast.AST] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []  # defining a nested scope touches no shared state
    return [stmt]


def _walk_head(node: ast.AST):
    """Walk *node* without descending into nested function scopes."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attribute names assigned an asyncio lock primitive in *cls*."""
    out: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = _self_attr_chain(target)
            if attr:
                out.add(attr)
    return out


def _lock_key(expr: ast.AST, known_locks: Set[str]) -> Optional[str]:
    """Stable key for a lock expression in an ``async with`` item."""
    attr = _self_attr_chain(expr)
    if attr is not None:
        if attr in known_locks or "lock" in attr.lower() or "mutex" in attr.lower():
            return f"self.{attr}"
        return None
    if isinstance(expr, ast.Name):
        low = expr.id.lower()
        if "lock" in low or "mutex" in low:
            return expr.id
    return None


def _held_locks(
    fn: ast.AsyncFunctionDef, known_locks: Set[str]
) -> Dict[int, FrozenSet[str]]:
    """Map ``id(stmt)`` -> locks lexically held at that statement."""
    held: Dict[int, FrozenSet[str]] = {}

    def visit(stmts: Sequence[ast.stmt], locks: FrozenSet[str]) -> None:
        for stmt in stmts:
            inner = locks
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = {
                    key
                    for item in stmt.items
                    if (key := _lock_key(item.context_expr, known_locks))
                }
                inner = locks | frozenset(acquired)
            # The compound head runs with the *outer* set (the lock is
            # only held once __aenter__ returns); bodies get ``inner``.
            held[id(stmt)] = locks
            for field_name in ("body", "orelse", "finalbody"):
                child = getattr(stmt, field_name, None)
                if isinstance(child, list) and child and isinstance(
                    child[0], ast.stmt
                ):
                    visit(child, inner)
            for handler in getattr(stmt, "handlers", []) or []:
                visit(handler.body, inner)

    visit(fn.body, frozenset())
    return held


class _AtomicityDomain(Domain[_State]):
    """Forward domain tracking open read windows per self-attribute."""

    def __init__(
        self,
        module: ModuleInfo,
        rule_id: str,
        qualname: str,
        held: Dict[int, FrozenSet[str]],
    ) -> None:
        self.module = module
        self.rule_id = rule_id
        self.qualname = qualname
        self.held = held
        # (write_line, write_col, attr, read_line) -> Finding; filled
        # during transfers, harvested after the fixpoint.  Keyed so the
        # same violation discovered on every solver pass reports once.
        self.reports: Dict[Tuple[int, int, str, int], Finding] = {}

    def initial(self) -> _State:
        return {}

    def join(self, a: _State, b: _State) -> _State:
        out = dict(a)
        for attr, entries in b.items():
            out[attr] = out.get(attr, frozenset()) | entries
        return out

    def transfer(self, block: Block, state: _State) -> _State:
        out = {attr: entries for attr, entries in state.items()}
        for stmt in block.stmts:
            locks = self.held.get(id(stmt), frozenset())
            reads, writes = self._accesses(stmt)
            for attr, node in reads:
                entry: _Entry = (
                    getattr(node, "lineno", stmt.lineno),
                    getattr(node, "col_offset", stmt.col_offset),
                    locks,
                    None,
                    None,
                )
                out[attr] = out.get(attr, frozenset()) | {entry}
            awaits = head_awaits(stmt)
            if awaits:
                await_line = min(
                    getattr(a, "lineno", stmt.lineno) for a in awaits
                )
                out = {
                    attr: frozenset(
                        e if e[3] is not None else (e[0], e[1], e[2], await_line, locks)
                        for e in entries
                    )
                    for attr, entries in out.items()
                }
            for attr, node in writes:
                for e in out.get(attr, frozenset()):
                    if e[3] is None:
                        continue
                    common = e[2] & (e[4] or frozenset()) & locks
                    if not common:
                        self._report(stmt, node, attr, e)
                out[attr] = frozenset()
        return out

    def _accesses(
        self, stmt: ast.stmt
    ) -> Tuple[List[Tuple[str, ast.AST]], List[Tuple[str, ast.AST]]]:
        """(reads, writes) of self-attributes in *stmt*'s head."""
        reads: List[Tuple[str, ast.AST]] = []
        writes: List[Tuple[str, ast.AST]] = []
        for head in _head_nodes(stmt):
            for node in _walk_head(head):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    attr = _self_attr_chain(node)
                    if attr:
                        reads.append((attr, node))
                elif isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                    getattr(node, "ctx", None), (ast.Store, ast.Del)
                ):
                    attr = _self_attr_chain(node)
                    if attr:
                        writes.append((attr, node))
                        if isinstance(stmt, ast.AugAssign):
                            reads.append((attr, node))
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr in _WRITE_METHODS:
                        attr = _self_attr_chain(node.func.value)
                        if attr:
                            writes.append((attr, node))
        return reads, writes

    def _report(
        self, stmt: ast.stmt, node: ast.AST, attr: str, entry: _Entry
    ) -> None:
        read_line, read_col, read_locks, await_line, await_locks = entry
        key = (
            getattr(node, "lineno", stmt.lineno),
            getattr(node, "col_offset", stmt.col_offset),
            attr,
            read_line,
        )
        if key in self.reports:
            return
        window = (
            f"read at line {read_line} -> await at line {await_line} "
            f"-> write at line {key[0]}"
        )
        if read_locks or await_locks:
            locks_note = (
                " (no single lock spans the window: "
                f"read holds {sorted(read_locks) or '[]'}, "
                f"await holds {sorted(await_locks or ()) or '[]'})"
            )
        else:
            locks_note = ""
        message = (
            f"{self.qualname} writes self.{attr} after reading it across "
            f"an await point ({window}); another task can interleave at "
            "the await and make the read stale — hold one asyncio.Lock "
            "across the whole window, or annotate the single-writer "
            f"justification{locks_note}"
        )
        related = (
            self.module.site(
                _FakeLoc(read_line, read_col),
                f"interleaving window opens: self.{attr} read here",
            ),
            self.module.site(
                _FakeLoc(await_line or read_line, 0),
                "control yields to the event loop here",
            ),
        )
        self.reports[key] = self.module.finding(
            node, self.rule_id, message, related=related
        )


class _FakeLoc:
    """Minimal location carrier for sites known only by line/col."""

    def __init__(self, lineno: int, col_offset: int) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


@register
class AtomicityRule(Rule):
    """self.* check-then-act must not span an await without a lock."""

    id = "F4"
    category = "dataflow"
    summary = (
        "async atomicity: reads of shared self.* state must not be "
        "separated from the dependent write by an await point unless "
        "one asyncio.Lock is held across the whole window"
    )

    def check_module(self, module: ModuleInfo) -> Sequence[Finding]:
        """Analyze every async method of every top-level class."""
        findings: List[Finding] = []
        for cls in module.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            known_locks = _lock_attrs(cls)
            for item in cls.body:
                if not isinstance(item, ast.AsyncFunctionDef):
                    continue
                args = item.args.posonlyargs + item.args.args
                if not args or args[0].arg != "self":
                    continue
                findings.extend(
                    self._check_method(module, cls, item, known_locks)
                )
        findings.sort(key=lambda f: (f.line, f.col, f.message))
        return findings

    def _check_method(
        self,
        module: ModuleInfo,
        cls: ast.ClassDef,
        fn: ast.AsyncFunctionDef,
        known_locks: Set[str],
    ) -> List[Finding]:
        cfg = build_cfg(fn)
        domain = _AtomicityDomain(
            module,
            self.id,
            f"{cls.name}.{fn.name}",
            _held_locks(fn, known_locks),
        )
        solve(cfg, domain)
        return list(domain.reports.values())
