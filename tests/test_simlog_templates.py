"""Tests for the message template catalog."""

import numpy as np
import pytest

from repro.errors import LogGenerationError
from repro.parsing.tokenizer import mask_message
from repro.simlog.templates import (
    ERROR,
    SAFE,
    UNKNOWN,
    MessageTemplate,
    TemplateCatalog,
    default_catalog,
)


class TestMessageTemplate:
    def test_field_kinds_extracted_in_order(self):
        t = MessageTemplate("t", "kernel", "a {pid} b {hex32}")
        assert t.field_kinds() == ("pid", "hex32")

    def test_fill_replaces_all_placeholders(self, rng):
        t = MessageTemplate("t", "kernel", "pid={pid} addr={hex32}")
        filled = t.fill(rng)
        assert "{" not in filled and "}" not in filled

    def test_static_text_masks(self):
        t = MessageTemplate("t", "kernel", "pid={pid} fixed")
        assert t.static_text() == "pid=<*> fixed"

    def test_rejects_unknown_field_kind(self):
        with pytest.raises(LogGenerationError):
            MessageTemplate("t", "kernel", "bad {nosuchkind}")

    def test_rejects_bad_label(self):
        with pytest.raises(LogGenerationError):
            MessageTemplate("t", "kernel", "x", label="weird")

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(LogGenerationError):
            MessageTemplate("t", "kernel", "x", weight=0)

    def test_terminal_requires_error_label(self):
        with pytest.raises(LogGenerationError):
            MessageTemplate("t", "kernel", "x", label=SAFE, terminal=True)


class TestDefaultCatalog:
    def test_has_all_three_label_classes(self, catalog):
        assert catalog.by_label(SAFE)
        assert catalog.by_label(UNKNOWN)
        assert catalog.by_label(ERROR)

    def test_substantial_size(self, catalog):
        """The catalog should be large enough to look like real logs."""
        assert len(catalog) >= 70

    def test_has_terminals(self, catalog):
        terminals = catalog.terminals()
        assert any(t.key == "cb_node_unavailable" for t in terminals)

    def test_paper_phrases_present(self, catalog):
        """Key phrases from the paper's Tables 3 and 8 exist."""
        for key in (
            "lustre_error",
            "dvs_verify_fs",
            "kernel_panic",
            "slurm_load_part",
            "mce_logged",
            "wait4boot",
            "oom_invoked",
        ):
            assert key in catalog

    def test_get_unknown_key_raises(self, catalog):
        with pytest.raises(LogGenerationError):
            catalog.get("no_such_template")

    def test_duplicate_keys_rejected(self):
        t = MessageTemplate("dup", "kernel", "x")
        with pytest.raises(LogGenerationError):
            TemplateCatalog([t, t])

    def test_sample_safe_only_returns_safe(self, catalog, rng):
        for _ in range(50):
            assert catalog.sample_safe(rng).label == SAFE

    def test_masking_is_consistent_across_fills(self, catalog):
        """Every fill of one template masks to the same static form.

        This is the invariant the whole parsing pipeline rests on.
        """
        rng = np.random.default_rng(0)
        for t in catalog:
            forms = {mask_message(t.fill(rng)) for _ in range(25)}
            assert len(forms) == 1, f"inconsistent masking for {t.key}: {forms}"

    def test_distinct_templates_do_not_collide(self, catalog):
        rng = np.random.default_rng(1)
        canon = {}
        for t in catalog:
            form = mask_message(t.fill(rng))
            assert form not in canon, f"{t.key} collides with {canon.get(form)}"
            canon[form] = t.key
