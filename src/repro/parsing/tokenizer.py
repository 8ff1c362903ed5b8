"""Static/dynamic content separation (Table 2 of the paper).

Each log message is "segregated into static and dynamic contents to
identify the constant message subphrase separating it from the variable
component (e.g., error identifier, IP address)"; the dynamic component is
discarded.  :func:`mask_message` replaces every dynamic span with the
``<*>`` mask so that all occurrences of one message family collapse to a
single canonical static phrase.

The masking rules are applied in priority order — composite dynamic
tokens (IP addresses, device ids, Lustre target names) are masked before
the generic number rules so their constant punctuation does not leak
into the static phrase.

A rule is skipped when the raw message lacks a literal that every match
of its regex contains (:data:`_REQUIRES`, plus a digit for every rule
but ``path``).  The skip is exact: a substitution replaces a span with
``<*>``, which holds no digit and none of the literals and keeps the
characters on either side of the span apart, so it cannot create a
literal.  One absent from the raw message is absent at every later
step, and its rule could not have fired.
"""

from __future__ import annotations

import re

__all__ = ["MASK", "mask_message", "tokenize", "DYNAMIC_PATTERNS"]

MASK = "<*>"

#: Ordered (name, compiled regex) masking rules.  Order matters: composite
#: tokens first, generic decimal/hex numbers last.
DYNAMIC_PATTERNS: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("hex_prefixed", re.compile(r"0x[0-9a-fA-F]+")),
    ("timestamp_tag", re.compile(r"\b\d{8}t\d{6}\b")),
    ("ipv4", re.compile(r"\b\d{1,3}(?:\.\d{1,3}){3}\b")),
    ("lustre_target", re.compile(r"\bsnx\d+-OST\d+\b")),
    ("nid", re.compile(r"\bnid\d+\b")),
    ("pci_devid", re.compile(r"\b[0-9a-f]{2}:[0-9a-f]{2}\.\d\b")),
    ("path", re.compile(r"/[\w.\-][\w./\-]*")),
    ("decimal", re.compile(r"\b\d+\b")),
    # Bare hex words (>= 6 chars, must contain a digit) such as kernel
    # page addresses; pure-decimal tokens were consumed by the rule above.
    ("hex_bare", re.compile(r"\b(?=[a-f]*\d)[0-9a-f]{6,}\b")),
)

#: Rule name -> a literal every match of that rule contains.
_REQUIRES = {
    "hex_prefixed": "0x",
    "ipv4": ".",
    "lustre_target": "snx",
    "nid": "nid",
    "pci_devid": ":",
    "path": "/",
}

#: (regex, required literal or None, needs a digit) per rule, in order.
_GUARDED = tuple(
    (pattern, _REQUIRES.get(name), name != "path")
    for name, pattern in DYNAMIC_PATTERNS
)

_DIGIT_RE = re.compile(r"\d")


def mask_message(message: str) -> str:
    """Return the canonical static form of *message*.

    Every dynamic span (hex ids, decimals, IPs, paths, device ids, ...)
    becomes :data:`MASK`; runs of whitespace are normalized to single
    spaces.  The result is deterministic: two messages produced from the
    same template always mask to the same string.

    >>> mask_message("hwerr[2816]: Correctable AER_BAD_TLP Error 0x5f00")
    'hwerr[<*>]: Correctable AER_BAD_TLP Error <*>'
    """
    out = message
    has_digit = _DIGIT_RE.search(message) is not None
    for pattern, literal, needs_digit in _GUARDED:
        if needs_digit and not has_digit:
            continue
        if literal is not None and literal not in message:
            continue
        out = pattern.sub(MASK, out)
    # str.split() splits on exactly the characters re's \s matches.
    return " ".join(out.split())


def tokenize(message: str) -> list[str]:
    """Whitespace-tokenize the masked form of *message*.

    The template miner operates on these token lists; dynamic tokens are
    already collapsed to :data:`MASK` so token positions align across
    occurrences of the same message family.
    """
    return mask_message(message).split(" ")
