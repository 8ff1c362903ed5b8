"""Inline suppression comments: ``# deshlint: allow[RULE] reason``.

A suppression silences findings of the named rule(s) on its own line or,
when the comment stands alone, on the next code line.  The reason text
is mandatory and every named rule must exist — an ``allow`` without a
reason, or naming an unregistered rule id (a typo, or a rule since
deleted), is itself reported (rule ``SUP``) so suppressions stay
auditable.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from .findings import Finding

__all__ = ["Suppression", "SuppressionIndex", "parse_suppressions"]

_ALLOW_RE = re.compile(
    r"#\s*deshlint:\s*allow\[(?P<rules>[A-Za-z0-9_,\s]+)\]\s*(?P<reason>.*)$"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``allow`` comment.

    ``target`` is the code line the suppression covers: the comment's
    own line for a trailing comment, or — for a comment-only line — the
    next code line below it (intervening comment/blank lines skipped,
    so a justification may span several comment lines).
    """

    line: int
    rules: tuple[str, ...]
    reason: str
    target: int


@dataclass
class SuppressionIndex:
    """All suppressions of one module, queryable per (line, rule)."""

    suppressions: list[Suppression] = field(default_factory=list)

    def covers(self, line: int, rule: str) -> bool:
        """Whether a finding of *rule* at *line* is suppressed."""
        for sup in self.suppressions:
            if rule not in sup.rules or not sup.reason:
                continue
            if line in (sup.line, sup.target):
                return True
        return False

    def malformed(
        self, path: str, lines: list[str], known: "set[str]"
    ) -> list[Finding]:
        """``SUP`` findings for every reason-less ``allow`` comment and
        every one naming a rule id outside *known*."""
        out = []
        for sup in self.suppressions:
            problems = []
            if not sup.reason:
                problems.append(
                    "suppression needs a reason: "
                    f"# deshlint: allow[{','.join(sup.rules)}] <why>"
                )
            unknown = [rule for rule in sup.rules if rule not in known]
            if unknown:
                problems.append(
                    f"unknown rule id {', '.join(unknown)} in suppression"
                )
            if not problems:
                continue
            snippet = lines[sup.line - 1] if sup.line <= len(lines) else ""
            out.append(
                Finding(
                    path=path,
                    line=sup.line,
                    col=1,
                    rule="SUP",
                    message="; ".join(problems),
                    snippet=snippet,
                )
            )
        return out


def parse_suppressions(source: str) -> SuppressionIndex:
    """Extract every ``allow`` comment from *source* via the tokenizer.

    Using real COMMENT tokens (not a per-line regex over raw text) means
    an ``allow``-shaped substring inside a string literal is never
    mistaken for a suppression.
    """
    index = SuppressionIndex()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return index  # unparsable source is reported by the engine instead
    skip_types = {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
    }
    for pos, tok in enumerate(tokens):
        if tok.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(tok.string)
        if match is None:
            continue
        rules = tuple(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        target = tok.start[0]
        if tok.string.strip() == tok.line.strip():
            # Comment-only line: cover the next code line below it.
            for later in tokens[pos + 1 :]:
                if later.type not in skip_types and later.type != tokenize.ENDMARKER:
                    target = later.start[0]
                    break
        index.suppressions.append(
            Suppression(
                line=tok.start[0],
                rules=rules,
                reason=match.group("reason").strip(),
                target=target,
            )
        )
    return index
