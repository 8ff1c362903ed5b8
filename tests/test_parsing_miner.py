"""Tests for the Drain-style template miner."""

import sys
import threading

import pytest

from repro.errors import TemplateMinerError
from repro.parsing import miner as miner_module
from repro.parsing.miner import MinedTemplate, TemplateMiner
from repro.parsing.tokenizer import MASK


class TestMinedTemplate:
    def test_similarity_identical(self):
        t = MinedTemplate(0, ["a", "b", "c"])
        assert t.similarity(["a", "b", "c"]) == 1.0

    def test_similarity_length_mismatch_is_zero(self):
        t = MinedTemplate(0, ["a", "b"])
        assert t.similarity(["a", "b", "c"]) == 0.0

    def test_mask_matches_anything(self):
        t = MinedTemplate(0, ["a", MASK, "c"])
        assert t.similarity(["a", "zzz", "c"]) == 1.0

    def test_absorb_generalizes(self):
        t = MinedTemplate(0, ["a", "b", "c"], count=1)
        t.absorb(["a", "x", "c"])
        assert t.tokens == ["a", MASK, "c"]
        assert t.count == 2

    def test_absorb_rejects_length_mismatch(self):
        t = MinedTemplate(0, ["a", "b"])
        with pytest.raises(TemplateMinerError):
            t.absorb(["a"])


class TestTemplateMiner:
    def test_identical_messages_one_template(self):
        miner = TemplateMiner()
        a = miner.add_message("Kernel panic - not syncing")
        b = miner.add_message("Kernel panic - not syncing")
        assert a is b
        assert len(miner) == 1
        assert b.count == 2

    def test_masked_variants_group(self):
        """Messages differing only in dynamic fields share one template."""
        miner = TemplateMiner()
        a = miner.add_message("Killed process 123 (aprun)")
        b = miner.add_message("Killed process 9999 (aprun)")
        assert a is b

    def test_different_lengths_never_group(self):
        miner = TemplateMiner()
        a = miner.add_message("one two three")
        b = miner.add_message("one two")
        assert a is not b

    def test_dissimilar_messages_split(self):
        miner = TemplateMiner(sim_threshold=0.6)
        a = miner.add_message("alpha beta gamma delta")
        b = miner.add_message("alpha zzz yyy xxx")
        assert a is not b

    def test_similar_tail_generalizes(self):
        miner = TemplateMiner(sim_threshold=0.5)
        a = miner.add_message("connect to host alpha failed now")
        b = miner.add_message("connect to host beta failed now")
        assert a is b
        assert MASK in a.tokens

    def test_match_does_not_mutate(self):
        miner = TemplateMiner()
        miner.add_message("stable message text")
        before = len(miner)
        found = miner.match("stable message text")
        assert found is not None
        assert len(miner) == before

    def test_match_unknown_returns_none(self):
        miner = TemplateMiner()
        miner.add_message("known message")
        assert miner.match("completely different number of tokens here") is None

    def test_template_ids_are_dense(self):
        miner = TemplateMiner()
        miner.fit(["a b c", "d e f", "g h i"])
        assert [t.template_id for t in miner.templates] == [0, 1, 2]

    def test_get_by_id(self):
        miner = TemplateMiner()
        t = miner.add_message("x y z")
        assert miner.get(t.template_id) is t

    def test_get_unknown_id_raises(self):
        with pytest.raises(TemplateMinerError):
            TemplateMiner().get(0)

    def test_empty_message_raises(self):
        with pytest.raises(TemplateMinerError):
            TemplateMiner().add_message("   ")

    def test_numeric_first_token_uses_wildcard_branch(self):
        """Unmasked high-cardinality tokens must not explode the tree."""
        miner = TemplateMiner(max_children=4)
        for i in range(20):
            miner.add_message(f"x{i}y same same same")
        # All 20 distinct leading tokens; tree must survive and match.
        assert miner.match("x3y same same same") is not None

    def test_fit_returns_self(self):
        miner = TemplateMiner()
        assert miner.fit(["a b"]) is miner

    @pytest.mark.parametrize(
        "kwargs",
        [{"depth": 0}, {"sim_threshold": 0.0}, {"sim_threshold": 1.5}, {"max_children": 0}],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(TemplateMinerError):
            TemplateMiner(**kwargs)

    def test_mines_full_catalog(self, catalog, rng):
        """Every catalog template becomes exactly one mined template."""
        miner = TemplateMiner()
        for t in catalog:
            for _ in range(3):
                miner.add_message(t.fill(rng))
        assert len(miner) == len(catalog)


class TestMatchMemo:
    def test_add_message_invalidates_a_remembered_miss(self):
        miner = TemplateMiner()
        assert miner.match("disk sda offline") is None
        added = miner.add_message("disk sda offline")
        assert miner.match("disk sda offline") is added

    def test_add_message_invalidates_a_remembered_answer(self):
        """A template generalized by ``add_message`` must be found again."""
        miner = TemplateMiner()
        template = miner.add_message("a b c d e")
        assert miner.match("a b c y z") is None  # 3/5 similar
        assert miner.add_message("a b c d z") is template  # 4/5: absorbed
        assert template.tokens == ["a", "b", "c", "d", MASK]
        assert miner.match("a b c y z") is template  # now 4/5

    def test_memo_is_keyed_on_the_masked_form(self):
        miner = TemplateMiner()
        template = miner.add_message("Killed process 123 (aprun)")
        assert miner.match("Killed process 9 (aprun)") is template
        assert miner.match("Killed   process 77 (aprun)") is template
        assert len(miner._match_memo) == 1

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(miner_module, "MATCH_MEMO_CAP", 8)
        miner = TemplateMiner()
        template = miner.add_message("known message")
        for i in range(50):
            assert miner.match("unseen " + "w" * (i + 1)) is None
            assert len(miner._match_memo) <= 8
        assert miner.match("known message") is template

    def test_concurrent_matches_agree_with_serial(self, monkeypatch, catalog, rng):
        """Threads sharing one memo (cleared often here) get serial answers."""
        monkeypatch.setattr(miner_module, "MATCH_MEMO_CAP", 4)
        miner = TemplateMiner()
        for t in catalog:
            miner.add_message(t.fill(rng))
        messages = [t.fill(rng) for t in catalog] + [f"unseen {w}" for w in "abcdefgh"]
        expected = [miner.match(m) for m in messages]
        mismatches = []

        def worker():
            for _ in range(20):
                got = [miner.match(m) for m in messages]
                if got != expected:
                    mismatches.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not mismatches
        # Check-then-insert: each thread can add one entry past the cap.
        assert len(miner._match_memo) <= 4 + len(threads)
