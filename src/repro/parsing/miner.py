"""Drain-style log template miner.

Groups tokenized log messages into message families ("phrases" in the
paper's terminology) using a fixed-depth parse tree:

* level 0 splits by token count (two messages with different lengths are
  never the same template),
* levels 1..depth split by the leading tokens (two by default, as in
  the original Drain; a generalized token becomes the wildcard ``<*>``
  branch),
* leaves hold template clusters; a message joins the most similar
  cluster above ``sim_threshold``, otherwise it founds a new one.

When a message joins a cluster, tokens that disagree with the cluster
template are generalized to ``<*>``.  Because :mod:`repro.parsing.tokenizer`
already masks dynamic fields, most clusters converge after one message;
the tree earns its keep on messages whose dynamic parts escape the
masking rules (free-form fragments, truncated words, ...).

:meth:`TemplateMiner.match` memoizes its answer per masked message (the
static form, of which a log holds few): the answer depends only on the
masked tokens and on the tree, and only :meth:`TemplateMiner.add_message`
changes the tree, so it clears the memo.  The memo holds at most
:data:`MATCH_MEMO_CAP` entries and is cleared when full, which bounds a
long-running service whose input keeps producing new static forms.

This is an independent reimplementation of the Drain algorithm (He et
al., ICWS 2017), the de-facto standard parser for unstructured HPC logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..errors import TemplateMinerError
from .tokenizer import MASK, mask_message, tokenize

__all__ = ["MATCH_MEMO_CAP", "MinedTemplate", "TemplateMiner"]

#: Most masked messages :meth:`TemplateMiner.match` remembers at once.
MATCH_MEMO_CAP = 65536

_UNSEEN = object()


@dataclass
class MinedTemplate:
    """One mined message family."""

    template_id: int
    tokens: list[str]
    count: int = 0

    @property
    def text(self) -> str:
        """The template rendered as a space-joined token string."""
        return " ".join(self.tokens)

    def similarity(self, tokens: list[str]) -> float:
        """Fraction of positions matching *tokens*; ``<*>`` matches anything."""
        if len(tokens) != len(self.tokens):
            return 0.0
        same = sum(
            1 for a, b in zip(self.tokens, tokens) if a == b or a == MASK
        )
        return same / len(tokens)

    def absorb(self, tokens: list[str]) -> None:
        """Merge *tokens* into this template, wildcarding disagreements."""
        if len(tokens) != len(self.tokens):
            raise TemplateMinerError(
                f"token length mismatch: {len(tokens)} vs {len(self.tokens)}"
            )
        self.tokens = [
            a if (a == b or a == MASK) else MASK
            for a, b in zip(self.tokens, tokens)
        ]
        self.count += 1


@dataclass
class _Node:
    children: Dict[str, "_Node"] = field(default_factory=dict)
    clusters: list[MinedTemplate] = field(default_factory=list)


class TemplateMiner:
    """Fixed-depth Drain parse tree.

    Parameters
    ----------
    depth:
        Number of leading tokens used as tree keys (default 2, matching
        Drain's standard depth-4 tree: root + length + 2 token levels).
    sim_threshold:
        Minimum similarity for a message to join an existing cluster
        (0.7: with a shallow tree the leaf test must be strict, or
        families sharing a two-token prefix over-generalize).
    max_children:
        Per-node branching cap; overflow tokens fall into the wildcard
        branch, bounding memory on high-cardinality token positions.
    """

    def __init__(
        self,
        depth: int = 2,
        sim_threshold: float = 0.7,
        max_children: int = 100,
    ) -> None:
        if depth < 1:
            raise TemplateMinerError(f"depth must be >= 1, got {depth}")
        if not 0.0 < sim_threshold <= 1.0:
            raise TemplateMinerError(
                f"sim_threshold must be in (0, 1], got {sim_threshold}"
            )
        if max_children < 1:
            raise TemplateMinerError(f"max_children must be >= 1, got {max_children}")
        self.depth = depth
        self.sim_threshold = sim_threshold
        self.max_children = max_children
        self._root: Dict[int, _Node] = {}
        self._templates: list[MinedTemplate] = []
        self._match_memo: Dict[str, Optional[MinedTemplate]] = {}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def templates(self) -> list[MinedTemplate]:
        """All mined templates, in id order."""
        return list(self._templates)

    def __len__(self) -> int:
        return len(self._templates)

    def get(self, template_id: int) -> MinedTemplate:
        """The template with the given dense id."""
        try:
            return self._templates[template_id]
        except IndexError:
            raise TemplateMinerError(f"no template with id {template_id}") from None

    # ------------------------------------------------------------------
    # mining
    # ------------------------------------------------------------------
    def add_message(self, message: str) -> MinedTemplate:
        """Route *message* through the tree; returns its (possibly new) template."""
        tokens = tokenize(message)
        if not tokens or tokens == [""]:
            raise TemplateMinerError("cannot mine an empty message")
        self._match_memo.clear()
        node = self._descend(tokens, create=True)
        assert node is not None
        best = self._best_cluster(node, tokens)
        if best is not None:
            best.absorb(tokens)
            return best
        template = MinedTemplate(template_id=len(self._templates), tokens=list(tokens), count=1)
        self._templates.append(template)
        node.clusters.append(template)
        return template

    def match(self, message: str) -> Optional[MinedTemplate]:
        """Find the template for *message* without modifying the tree."""
        masked = mask_message(message)
        found = self._match_memo.get(masked, _UNSEEN)
        if found is _UNSEEN:
            tokens = masked.split(" ")
            node = self._descend(tokens, create=False)
            found = None if node is None else self._best_cluster(node, tokens)
            if len(self._match_memo) >= MATCH_MEMO_CAP:
                self._match_memo.clear()
            self._match_memo[masked] = found
        return found

    def fit(self, messages: Iterable[str]) -> "TemplateMiner":
        """Mine every message in *messages*; returns self for chaining."""
        for m in messages:
            self.add_message(m)
        return self

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _descend(self, tokens: list[str], *, create: bool) -> Optional[_Node]:
        length = len(tokens)
        node = self._root.get(length)
        if node is None:
            if not create:
                return None
            node = self._root[length] = _Node()
        for i in range(min(self.depth, length)):
            key = tokens[i]
            # High-cardinality guard: numbers that escaped masking, or a
            # full branch, go down the wildcard edge.
            if key not in node.children:
                if any(ch.isdigit() for ch in key):
                    key = MASK
                elif len(node.children) >= self.max_children:
                    key = MASK
            child = node.children.get(key)
            if child is None:
                if not create:
                    # Fall back to the wildcard branch when matching only.
                    child = node.children.get(MASK)
                    if child is None:
                        return None
                else:
                    child = node.children[key] = _Node()
            node = child
        return node

    def _best_cluster(
        self, node: _Node, tokens: list[str]
    ) -> Optional[MinedTemplate]:
        best: Optional[MinedTemplate] = None
        best_sim = self.sim_threshold
        for cluster in node.clusters:
            sim = cluster.similarity(tokens)
            if sim >= best_sim and (best is None or sim > best_sim):
                best, best_sim = cluster, sim
        return best
