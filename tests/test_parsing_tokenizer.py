"""Tests for static/dynamic masking (Table 2 semantics)."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parsing.tokenizer import DYNAMIC_PATTERNS, MASK, mask_message, tokenize
from repro.simlog.templates import default_catalog


def reference_mask(message: str) -> str:
    """Every rule in order, unguarded: what :func:`mask_message` must equal."""
    out = message
    for _, pattern in DYNAMIC_PATTERNS:
        out = pattern.sub(MASK, out)
    return re.sub(r"\s+", " ", out).strip()


#: Fragments that trigger (or nearly trigger) every masking rule.
_TRIGGERS = st.sampled_from(
    ["snx", "nid", "OST", "0x", "t", "x", ".", "/", ":", "-", " ", "\t", "\u00a0"]
    + list("0123456789abcdef")
)


class TestMaskingRules:
    @pytest.mark.parametrize(
        "message,expected",
        [
            ("error code 0x5f3a21", f"error code {MASK}"),
            ("pid 2816 exited", f"pid {MASK} exited"),
            ("from 10.128.3.44 port 22", f"from {MASK} port {MASK}"),
            ("target snx1103-OST0004 ready", f"target {MASK} ready"),
            ("peer nid00123 down", f"peer {MASK} down"),
            ("device af:1f.3 reset", f"device {MASK} reset"),
            ("mount /lus/snx3 failed", f"mount {MASK} failed"),
            ("quiesce 20141216t162520 done", f"quiesce {MASK} done"),
            ("page f00abc123 corrected", f"page {MASK} corrected"),
        ],
    )
    def test_each_dynamic_kind(self, message, expected):
        assert mask_message(message) == expected

    def test_words_with_digits_inside_survive(self):
        """Identifiers like ipogif0 / MC0 are static, not dynamic."""
        assert mask_message("ipogif0: transmit ok") == "ipogif0: transmit ok"
        assert mask_message("EDAC MC0: ready") == "EDAC MC0: ready"

    def test_plain_text_unchanged(self):
        assert mask_message("Kernel panic - not syncing") == (
            "Kernel panic - not syncing"
        )

    def test_short_hex_words_survive(self):
        """English words over the hex alphabet must not be masked."""
        assert mask_message("dead beef face cafe") == "dead beef face cafe"

    def test_whitespace_normalized(self):
        assert mask_message("a   b\t c") == "a b c"

    def test_composite_before_decimal(self):
        """An IP must become one mask, not four masked octets."""
        assert mask_message("ip 10.128.1.2") == f"ip {MASK}"

    def test_idempotent(self):
        msg = "hwerr[2816]: error 0x5f00 at /lus/snx3"
        once = mask_message(msg)
        assert mask_message(once) == once

    @given(st.integers(0, 2**32 - 1), st.integers(100, 65535))
    def test_property_numbers_always_masked(self, a, b):
        assert mask_message(f"val {a} pid {b}") == f"val {MASK} pid {MASK}"


class TestRuleGuards:
    """The literal guards skip a rule only when it could not have fired."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_TRIGGERS, max_size=40).map("".join))
    def test_property_equals_unguarded_loop(self, message):
        assert mask_message(message) == reference_mask(message)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_catalog_equals_unguarded_loop(self, seed):
        rng = np.random.default_rng(seed)
        for template in default_catalog():
            for _ in range(5):
                message = template.fill(rng)
                assert mask_message(message) == reference_mask(message), template.key

    @pytest.mark.parametrize(
        "message",
        [
            "no digits here at all",
            "path only /var/log/messages",
            "snx nid OST 0x without numbers",
            "unicode digit \u0663\u0664 and /p",
        ],
    )
    def test_guarded_edge_cases(self, message):
        assert mask_message(message) == reference_mask(message)

    def test_str_split_whitespace_is_regex_whitespace(self):
        """``" ".join(s.split())`` equals the ``\\s+`` collapse on every code point."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


class TestTokenize:
    def test_tokens_are_masked(self):
        assert tokenize("code 0xff done") == ["code", MASK, "done"]

    def test_single_word(self):
        assert tokenize("cb_node_unavailable") == ["cb_node_unavailable"]

    def test_alignment_across_occurrences(self):
        a = tokenize("Killed process 123 (aprun)")
        b = tokenize("Killed process 99999 (aprun)")
        assert a == b
