"""The unit of deshlint output: one :class:`Finding` at one source site.

A finding's :meth:`~Finding.key` deliberately hashes the *content* of
the flagged line rather than its number, so a SARIF fingerprint
survives unrelated edits above it but stops matching the moment the
flagged code itself changes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["Finding", "RelatedSite"]


@dataclass(frozen=True)
class RelatedSite:
    """A secondary location attached to a finding.

    Dataflow findings are rarely about one line: an F4 atomicity window
    spans the stale read, the await that opens the window, and the
    write.  Each hop is one ``RelatedSite`` rendered as a SARIF
    ``relatedLocation``.
    """

    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    snippet: str = field(compare=False, default="")
    related: tuple = field(compare=False, default=())

    def key(self) -> str:
        """Stable identity: rule + file + flagged-line content hash."""
        text = f"{self.rule}|{self.path}|{self.snippet.strip()}"
        return hashlib.sha256(text.encode()).hexdigest()[:24]

    def render(self) -> str:
        """One-line human-readable form, ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        """JSON-serializable form (used by ``repro lint --json``)."""
        out = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
            "key": self.key(),
        }
        if self.related:
            out["related"] = [site.to_dict() for site in self.related]
        return out
