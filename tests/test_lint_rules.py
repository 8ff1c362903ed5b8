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


pytestmark = pytest.mark.lint


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
