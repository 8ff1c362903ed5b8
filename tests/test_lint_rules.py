"""Per-rule deshlint tests: each rule catches a seeded bad snippet and
passes the matching good snippet."""

import textwrap

import pytest

from repro.lint import get_rules, lint_source


def run_rule(rule_id, source):
    """Lint a dedented snippet with exactly one rule; return findings."""
    return lint_source(
        textwrap.dedent(source), rules=get_rules([rule_id])
    )


def rules_hit(findings):
    return {f.rule for f in findings}


pytestmark = pytest.mark.lint


# ----------------------------------------------------------------------
# R1 — RNG discipline
# ----------------------------------------------------------------------
class TestR1RngDiscipline:
    def test_flags_stdlib_random_import(self):
        findings = run_rule("R1", "import random\n")
        assert rules_hit(findings) == {"R1"}

    def test_flags_from_random_import(self):
        findings = run_rule("R1", "from random import shuffle\n")
        assert rules_hit(findings) == {"R1"}

    def test_flags_module_level_numpy_sampler(self):
        findings = run_rule(
            "R1",
            """
            import numpy as np
            x = np.random.randint(0, 10)
            """,
        )
        assert rules_hit(findings) == {"R1"}
        assert "randint" in findings[0].message

    def test_flags_np_random_seed(self):
        findings = run_rule(
            "R1",
            """
            import numpy as np
            np.random.seed(0)
            """,
        )
        assert len(findings) == 1

    def test_flags_from_numpy_random_sampler_import(self):
        findings = run_rule("R1", "from numpy.random import rand\n")
        assert len(findings) == 1

    def test_flags_sampler_passed_as_callback(self):
        findings = run_rule(
            "R1",
            """
            import numpy as np
            f = np.random.shuffle
            """,
        )
        assert len(findings) == 1

    def test_allows_default_rng_and_generator(self):
        findings = run_rule(
            "R1",
            """
            import numpy as np

            def draw(rng: np.random.Generator, seed: int):
                rng = np.random.default_rng(seed)
                ss = np.random.SeedSequence([seed])
                return rng.integers(0, 10)
            """,
        )
        assert findings == []

    def test_respects_import_alias(self):
        findings = run_rule(
            "R1",
            """
            import numpy
            numpy.random.uniform(0, 1)
            """,
        )
        assert len(findings) == 1


# ----------------------------------------------------------------------
# R4 — exception hygiene
# ----------------------------------------------------------------------
class TestR4ExceptionHygiene:
    def test_flags_bare_except(self):
        findings = run_rule(
            "R4",
            """
            try:
                work()
            except:
                pass
            """,
        )
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_flags_broad_swallow(self):
        findings = run_rule(
            "R4",
            """
            try:
                work()
            except Exception:
                pass
            """,
        )
        assert len(findings) == 1
        assert "swallows" in findings[0].message

    def test_flags_broad_reraise_with_softer_message(self):
        findings = run_rule(
            "R4",
            """
            try:
                work()
            except Exception as exc:
                raise CustomError("wrapped") from exc
            """,
        )
        assert len(findings) == 1
        assert "allow[R4]" in findings[0].message

    def test_flags_raise_of_builtin(self):
        findings = run_rule("R4", "raise ValueError('nope')\n")
        assert len(findings) == 1
        assert "repro.errors" in findings[0].message

    def test_narrow_catch_and_custom_raise_pass(self):
        findings = run_rule(
            "R4",
            """
            class CustomError(RuntimeError):
                pass

            try:
                work()
            except (OSError, ValueError):
                raise CustomError("typed")
            """,
        )
        assert findings == []

    def test_reraise_bare_passes_when_narrow(self):
        findings = run_rule(
            "R4",
            """
            try:
                work()
            except KeyError:
                raise
            """,
        )
        assert findings == []

    def test_allows_notimplemented_and_stopiteration(self):
        findings = run_rule(
            "R4",
            """
            def todo():
                raise NotImplementedError
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# R5 — public API consistency
# ----------------------------------------------------------------------
class TestR5PublicApi:
    def test_flags_missing_module_docstring(self):
        findings = run_rule("R5", "X = 1\n")
        assert any("module has no docstring" in f.message for f in findings)

    def test_flags_public_def_missing_from_all(self):
        findings = run_rule(
            "R5",
            '''
            """Doc."""
            __all__ = ["f"]

            def f():
                """Doc."""

            def g():
                """Doc."""
            ''',
        )
        assert any("'g' is missing from __all__" in f.message for f in findings)

    def test_flags_phantom_all_entry(self):
        findings = run_rule(
            "R5",
            '''
            """Doc."""
            __all__ = ["ghost"]
            ''',
        )
        assert any("not defined" in f.message for f in findings)

    def test_flags_duplicate_all_entry(self):
        findings = run_rule(
            "R5",
            '''
            """Doc."""
            __all__ = ["f", "f"]

            def f():
                """Doc."""
            ''',
        )
        assert any("twice" in f.message for f in findings)

    def test_flags_missing_docstrings(self):
        findings = run_rule(
            "R5",
            '''
            """Doc."""
            __all__ = ["f", "C"]

            def f():
                pass

            class C:
                """Doc."""

                def method(self):
                    pass
            ''',
        )
        messages = [f.message for f in findings]
        assert any("function f has no docstring" in m for m in messages)
        assert any("C.method has no docstring" in m for m in messages)

    def test_flags_public_defs_without_all(self):
        findings = run_rule(
            '''R5''',
            '''
            """Doc."""

            def f():
                """Doc."""
            ''',
        )
        assert any("no __all__" in f.message for f in findings)

    def test_consistent_module_passes(self):
        findings = run_rule(
            "R5",
            '''
            """Doc."""
            __all__ = ["f", "C"]

            def f():
                """Doc."""

            def _private():
                pass

            class C:
                """Doc."""

                def method(self):
                    """Doc."""

                def _internal(self):
                    pass
            ''',
        )
        assert findings == []
