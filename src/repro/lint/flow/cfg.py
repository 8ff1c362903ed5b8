"""Per-function control-flow graph over the Python AST.

:func:`build_cfg` lowers one function body into basic blocks of
*statement* granularity.  Compound statements contribute only their
head to a block — an ``if`` head evaluates its test, a ``for`` head
binds its target — while their bodies become separate blocks wired with
the appropriate edges.  The graph is deliberately a sound
over-approximation of CPython's actual control flow:

* every block created inside a ``try`` body gets an edge to every
  handler of that ``try`` (any statement may raise);
* ``raise`` jumps to the innermost enclosing handler when one exists,
  else to the exit block;
* ``finally`` bodies are sequenced on the fall-through paths; a
  ``return``/``raise`` that would dynamically route *through* a
  ``finally`` edges straight to the exit/handler instead (documented
  soundness caveat — the analyses only ever lose precision from it);
* ``with`` bodies are sequenced linearly (context-manager exceptional
  edges are ignored);
* comprehensions are expressions and never split a block.

**Async awareness.**  The builder already lowers ``async for`` /
``async with`` structurally (same shape as their sync twins); what the
async analyses additionally need is *where control may leave the
coroutine*.  :func:`head_awaits` reports the await expressions a
statement's *head* evaluates — the part that actually lives in the
block, not a compound's body — and :func:`is_yield_point` folds that to
a bool.  An ``async for`` head is a yield point (``__anext__`` is
awaited on every iteration, including the exhausting one), an ``async
with`` head likewise (``__aenter__``; ``__aexit__`` is approximated to
the head too), and ``await`` anywhere in a simple statement — including
inside comprehensions and call arguments such as ``asyncio.gather`` /
``create_task`` fan-out — marks that statement.  Nested function
definitions and lambdas are *not* descended into: their awaits belong
to the inner coroutine, not this one.

Block ids are assigned in construction order, so :meth:`CFG.describe`
output is deterministic — the golden-CFG tests compare it verbatim;
yield-point statements render with a ``~`` suffix (``Assign~``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["Block", "CFG", "build_cfg", "head_awaits", "is_yield_point"]

#: Scope boundaries whose inner awaits belong to a different coroutine.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_awaits(node: ast.AST) -> List[ast.AST]:
    """``Await`` nodes inside *node* without crossing a scope boundary."""
    out: List[ast.AST] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _SCOPE_NODES):
            continue
        if isinstance(child, ast.Await):
            out.append(child)
        if isinstance(child, ast.comprehension) and child.is_async:
            # ``async for`` inside a comprehension awaits per element.
            out.append(child.iter)
        stack.extend(ast.iter_child_nodes(child))
    return out


def head_awaits(stmt: ast.stmt) -> List[ast.AST]:
    """Await points evaluated by *stmt*'s head (block-resident part).

    Compound statements contribute only the expressions their head
    evaluates — an ``if`` its test, a loop its iterable — because their
    bodies live in other blocks and are analyzed there.  ``async for``
    and ``async with`` heads are themselves await points.
    """
    if isinstance(stmt, ast.AsyncFor):
        return [stmt] + _own_awaits(stmt.iter)
    if isinstance(stmt, ast.AsyncWith):
        out: List[ast.AST] = [stmt]
        for item in stmt.items:
            out.extend(_own_awaits(item.context_expr))
        return out
    if isinstance(stmt, (ast.If, ast.While)):
        return _own_awaits(stmt.test)
    if isinstance(stmt, ast.For):
        return _own_awaits(stmt.iter)
    if isinstance(stmt, ast.With):
        out = []
        for item in stmt.items:
            out.extend(_own_awaits(item.context_expr))
        return out
    if isinstance(stmt, ast.Try):
        return []  # the try head evaluates nothing
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # Defining a nested function/class runs no awaits — the inner
        # body's suspension points belong to the inner scope.
        return []
    return _own_awaits(stmt)


def is_yield_point(stmt: ast.stmt) -> bool:
    """Whether *stmt*'s head may yield control back to the event loop."""
    return bool(head_awaits(stmt))


@dataclass
class Block:
    """One basic block: a run of statements with a single entry point."""

    id: int
    stmts: List[ast.stmt] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)

    def add_succ(self, target: int) -> None:
        """Add an edge to *target*, keeping the successor list deduped."""
        if target not in self.succs:
            self.succs.append(target)


@dataclass
class CFG:
    """A built control-flow graph: blocks plus entry/exit designators."""

    blocks: List[Block]
    entry: int
    exit: int

    def block(self, block_id: int) -> Block:
        """The block with id *block_id*."""
        return self.blocks[block_id]

    def preds(self, block_id: int) -> List[int]:
        """Ids of all predecessors of *block_id*, in id order."""
        return [b.id for b in self.blocks if block_id in b.succs]

    def rpo(self) -> List[int]:
        """Reverse-postorder block ids from the entry (iterative DFS)."""
        seen = set()
        order: List[int] = []
        stack: List[tuple[int, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            node, idx = stack[-1]
            succs = self.blocks[node].succs
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                nxt = succs[idx]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                stack.pop()
                order.append(node)
        order.reverse()
        return order

    def describe(self) -> str:
        """Deterministic one-line-per-block rendering (golden-test form).

        ``b<id>[Stmt,Stmt] -> b2,b3`` per block; the head statement of a
        compound appears under its node-type name, the exit block is
        labelled ``exit``.  A statement whose head may yield control (an
        await point) renders with a ``~`` suffix: ``Assign~``.
        """
        lines = []
        for block in self.blocks:
            kinds = ",".join(
                type(s).__name__ + ("~" if is_yield_point(s) else "")
                for s in block.stmts
            ) or "-"
            succs = ",".join(f"b{i}" for i in block.succs) or "-"
            tag = " (exit)" if block.id == self.exit else ""
            lines.append(f"b{block.id}[{kinds}]{tag} -> {succs}")
        return "\n".join(lines)


class _Builder:
    """Stateful lowering of one statement list into a :class:`CFG`."""

    def __init__(self) -> None:
        self.blocks: List[Block] = []
        #: (head_id, after_id) per enclosing loop, innermost last.
        self.loops: List[tuple[int, int]] = []
        #: Handler-entry block ids per enclosing try, innermost last.
        self.handlers: List[List[int]] = []
        self.entry = self._new_block().id
        self.exit = self._new_block().id

    # ------------------------------------------------------------------
    def _new_block(self) -> Block:
        block = Block(id=len(self.blocks))
        self.blocks.append(block)
        return block

    def _raise_target(self) -> int:
        """Where an exception goes: innermost handler set, else exit."""
        if self.handlers and self.handlers[-1]:
            return self.handlers[-1][0]
        return self.exit

    # ------------------------------------------------------------------
    def lower(self, stmts: List[ast.stmt], current: Optional[int]) -> Optional[int]:
        """Lower *stmts* starting in block *current*.

        Returns the fall-through block id, or ``None`` when every path
        terminated (return/raise/break/continue).
        """
        for stmt in stmts:
            if current is None:
                return None  # unreachable tail; keep the CFG minimal
            current = self._lower_stmt(stmt, current)
        return current

    def _lower_stmt(self, stmt: ast.stmt, current: int) -> Optional[int]:
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt, current)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._lower_loop(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._lower_try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self.blocks[current].stmts.append(stmt)
            return self.lower(stmt.body, current)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.blocks[current].stmts.append(stmt)
            target = self.exit if isinstance(stmt, ast.Return) else self._raise_target()
            self.blocks[current].add_succ(target)
            return None
        if isinstance(stmt, ast.Break):
            self.blocks[current].stmts.append(stmt)
            if self.loops:
                self.blocks[current].add_succ(self.loops[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            self.blocks[current].stmts.append(stmt)
            if self.loops:
                self.blocks[current].add_succ(self.loops[-1][0])
            return None
        self.blocks[current].stmts.append(stmt)
        return current

    # ------------------------------------------------------------------
    def _lower_if(self, stmt: ast.If, current: int) -> Optional[int]:
        self.blocks[current].stmts.append(stmt)  # head: evaluates test
        then_entry = self._new_block()
        self.blocks[current].add_succ(then_entry.id)
        then_exit = self.lower(stmt.body, then_entry.id)
        after = self._new_block()
        if stmt.orelse:
            else_entry = self._new_block()
            self.blocks[current].add_succ(else_entry.id)
            else_exit = self.lower(stmt.orelse, else_entry.id)
            if else_exit is not None:
                self.blocks[else_exit].add_succ(after.id)
        else:
            self.blocks[current].add_succ(after.id)
        if then_exit is not None:
            self.blocks[then_exit].add_succ(after.id)
        return after.id

    def _lower_loop(self, stmt: ast.stmt, current: int) -> int:
        head = self._new_block()
        head.stmts.append(stmt)  # head: evaluates test / binds target
        self.blocks[current].add_succ(head.id)
        after = self._new_block()
        self.loops.append((head.id, after.id))
        body_entry = self._new_block()
        head.add_succ(body_entry.id)
        body_exit = self.lower(stmt.body, body_entry.id)
        self.loops.pop()
        if body_exit is not None:
            self.blocks[body_exit].add_succ(head.id)  # back edge
        orelse = getattr(stmt, "orelse", [])
        if orelse:
            else_entry = self._new_block()
            head.add_succ(else_entry.id)
            else_exit = self.lower(orelse, else_entry.id)
            if else_exit is not None:
                self.blocks[else_exit].add_succ(after.id)
        else:
            head.add_succ(after.id)
        return after.id

    def _lower_try(self, stmt: ast.Try, current: int) -> Optional[int]:
        self.blocks[current].stmts.append(stmt)  # head marker
        handler_entries = [self._new_block() for _ in stmt.handlers]
        body_entry = self._new_block()
        self.blocks[current].add_succ(body_entry.id)
        first_body_block = body_entry.id
        self.handlers.append([b.id for b in handler_entries])
        body_exit = self.lower(stmt.body, body_entry.id)
        self.handlers.pop()
        # Any statement in the body may raise: every block lowered for
        # the body gets an edge to every handler entry.
        body_blocks = range(first_body_block, len(self.blocks))
        for block_id in body_blocks:
            if all(block_id != h.id for h in handler_entries):
                for h in handler_entries:
                    self.blocks[block_id].add_succ(h.id)
        if stmt.orelse and body_exit is not None:
            body_exit = self.lower(stmt.orelse, body_exit)

        exits: List[int] = []
        if body_exit is not None:
            exits.append(body_exit)
        for handler, entry in zip(stmt.handlers, handler_entries):
            handler_exit = self.lower(handler.body, entry.id)
            if handler_exit is not None:
                exits.append(handler_exit)
        if stmt.finalbody:
            final_entry = self._new_block()
            for ex in exits:
                self.blocks[ex].add_succ(final_entry.id)
            final_exit = self.lower(stmt.finalbody, final_entry.id)
            if final_exit is None:
                return None
            after = self._new_block()
            self.blocks[final_exit].add_succ(after.id)
            return after.id
        if not exits:
            return None
        after = self._new_block()
        for ex in exits:
            self.blocks[ex].add_succ(after.id)
        return after.id


def build_cfg(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> CFG:
    """Build the control-flow graph of one function definition."""
    builder = _Builder()
    tail = builder.lower(list(func.body), builder.entry)
    if tail is not None:
        builder.blocks[tail].add_succ(builder.exit)
    return CFG(blocks=builder.blocks, entry=builder.entry, exit=builder.exit)
