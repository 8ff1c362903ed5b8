"""Engine-level deshlint tests: suppressions, discovery, CLI, registry."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint import (
    get_rules,
    lint_paths,
    lint_source,
    load_modules,
    parse_suppressions,
)

pytestmark = pytest.mark.lint

#: A module whose one R4 finding (a bare except) sits on line 5.
BARE_EXCEPT = '"""Doc."""\n\ntry:\n    pass\nexcept:\n    pass\n'


# ----------------------------------------------------------------------
# Inline suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_allow_suppresses_own_line(self):
        findings = lint_source(
            "try:\n    work()\n"
            "except:  # deshlint: allow[R4] docs example only\n    pass\n",
            rules=get_rules(["R4"]),
        )
        assert findings == []

    def test_comment_line_covers_next_code_line(self):
        findings = lint_source(
            textwrap.dedent(
                """
                try:
                    work()
                # deshlint: allow[R4] legacy shim kept for comparison
                except:
                    pass
                """
            ),
            rules=get_rules(["R4"]),
        )
        assert findings == []

    def test_allow_skips_intervening_comment_lines(self):
        # A multi-line justification block: the allow comment must reach
        # past further comment lines to the first *code* line.
        findings = lint_source(
            textwrap.dedent(
                """
                try:
                    work()
                # deshlint: allow[R4] wrapping arbitrary callback failures
                # (second line of the justification)
                except Exception:
                    pass
                """
            ),
            rules=get_rules(["R4"]),
        )
        assert findings == []

    def test_allow_without_reason_is_rejected_and_reported(self):
        findings = lint_source(
            "try:\n    work()\nexcept:  # deshlint: allow[R4]\n    pass\n",
            rules=get_rules(["R4"]),
        )
        rules = {f.rule for f in findings}
        assert "R4" in rules  # suppression did not take effect
        assert "SUP" in rules  # and the malformed allow is itself flagged

    def test_allow_for_other_rule_does_not_suppress(self):
        # R5 did not run but is registered, so its allow is no SUP finding.
        findings = lint_source(
            "try:\n    work()\n"
            "except:  # deshlint: allow[R5] wrong rule id\n    pass\n",
            rules=get_rules(["R4"]),
        )
        assert {f.rule for f in findings} == {"R4"}

    @pytest.mark.parametrize("rule_id", ["R1", "R2", "R3", "F1", "F2"])
    def test_allow_naming_retired_rule_is_reported(self, rule_id):
        # A retired rule's allow now justifies nothing.
        findings = lint_source(
            f"x = 1  # deshlint: allow[{rule_id}] old justification\n",
            rules=get_rules(["R4"]),
        )
        assert [f.rule for f in findings] == ["SUP"]
        assert f"unknown rule id {rule_id}" in findings[0].message

    def test_allow_naming_unknown_rule_is_reported(self):
        # A typo (F44) or a rule since deleted must not pass silently.
        findings = lint_source(
            "x = 1  # deshlint: allow[F44] typo for F4\n",
            rules=get_rules(["R4"]),
        )
        assert [f.rule for f in findings] == ["SUP"]
        assert "unknown rule id F44" in findings[0].message

    def test_allow_multiple_rules_in_one_comment(self):
        index = parse_suppressions(
            "x = 1  # deshlint: allow[R4, R5] shared justification\n"
        )
        assert index.covers(1, "R4")
        assert index.covers(1, "R5")
        assert not index.covers(1, "F4")


# ----------------------------------------------------------------------
# Discovery / driver
# ----------------------------------------------------------------------
class TestDriver:
    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        modules, errors = load_modules([tmp_path])
        assert modules == []
        assert len(errors) == 1
        assert errors[0].rule == "SYNTAX"

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError):
            lint_paths([tmp_path / "nope"])

    @pytest.mark.parametrize(
        "rule_id", ["R99", "R1", "R2", "R3", "F1", "F2", "F3", "F5", "F6"]
    )
    def test_unknown_rule_id_raises(self, rule_id):
        # R1, R2, R3, F1, F2, F3, F5 and F6 are retired ids: asking for
        # them is a usage error.
        with pytest.raises(LintError):
            get_rules([rule_id])

    def test_directory_walk_skips_pycache(self, tmp_path):
        (tmp_path / "ok.py").write_text('"""Doc."""\n')
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text(BARE_EXCEPT)
        report = lint_paths([tmp_path], rules=get_rules(["R4"]))
        assert report.modules == 1
        assert report.findings == []

    def test_findings_sorted_by_location(self, tmp_path):
        (tmp_path / "b.py").write_text(BARE_EXCEPT)
        (tmp_path / "a.py").write_text(BARE_EXCEPT)
        report = lint_paths([tmp_path], rules=get_rules(["R4"]))
        paths = [Path(f.path).name for f in report.findings]
        assert paths == ["a.py", "b.py"]


# ----------------------------------------------------------------------
# CLI flow: bad file -> exit 1; usage errors -> exit 2
# ----------------------------------------------------------------------
class TestCliLint:
    def _run(self, *args, cwd):
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", *args],
            cwd=cwd,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )

    def test_bad_file_fails_with_text_and_json_reports(self, tmp_path):
        bad = tmp_path / "offender.py"
        bad.write_text(BARE_EXCEPT)

        first = self._run(str(bad), cwd=tmp_path)
        assert first.returncode == 1
        assert "R4" in first.stdout

        json_run = self._run(str(bad), "--json", cwd=tmp_path)
        assert json_run.returncode == 1
        payload = json.loads(json_run.stdout)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "R4"

    def test_retired_rule_id_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "offender.py"
        bad.write_text(BARE_EXCEPT)
        run = self._run(str(bad), "--rules", "R1", cwd=tmp_path)
        assert run.returncode == 2
        assert "unknown rule 'R1'" in run.stderr

    def test_sarif_export(self, tmp_path):
        bad = tmp_path / "offender.py"
        bad.write_text(BARE_EXCEPT)
        sarif_path = tmp_path / "out.sarif"

        run = self._run(str(bad), "--sarif", str(sarif_path), cwd=tmp_path)
        assert run.returncode == 1
        log = json.loads(sarif_path.read_text())
        assert log["version"] == "2.1.0"
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "deshlint"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"R4", "F4"} <= rule_ids  # what ran, not what fired
        rule_meta = {r["id"]: r for r in driver["rules"]}
        assert {
            meta["defaultConfiguration"]["level"] for meta in rule_meta.values()
        } == {"warning"}
        assert rule_meta["R4"]["helpUri"].endswith("#rule-r4")
        results = log["runs"][0]["results"]
        assert results[0]["ruleId"] == "R4"
        # Registered rules annotate at the one default level.
        assert results[0]["level"] == "warning"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5
        assert "deshlintKey/v1" in results[0]["partialFingerprints"]

    def test_sarif_related_locations_for_dataflow_findings(self, tmp_path):
        """F4's interleaving window renders as SARIF relatedLocations.

        Multi-site dataflow findings must annotate every hop (read,
        await) in code scanning, not just the write that fires.
        """
        bad = tmp_path / "racer.py"
        bad.write_text(
            textwrap.dedent(
                '''
                """Doc."""

                import asyncio


                class Counter:
                    def __init__(self):
                        self.value = 0

                    async def bump(self):
                        current = self.value
                        await asyncio.sleep(0)
                        self.value = current + 1
                '''
            )
        )
        from repro.lint.sarif import sarif_log

        rules = get_rules(["F4"])
        report = lint_paths([bad], rules=rules)
        assert len(report.findings) == 1
        assert len(report.findings[0].related) == 2

        log = sarif_log(report, rules, root=tmp_path)
        result = log["runs"][0]["results"][0]
        assert result["ruleId"] == "F4"
        related = result["relatedLocations"]
        assert len(related) == 2
        first, second = related
        assert "interleaving window opens" in first["message"]["text"]
        assert "yields to the event loop" in second["message"]["text"]
        # the read site (line 12) and the await site (line 13)
        assert first["physicalLocation"]["region"]["startLine"] == 12
        assert second["physicalLocation"]["region"]["startLine"] == 13
        assert (
            first["physicalLocation"]["artifactLocation"]["uri"] == "racer.py"
        )
        # related sites ride through --json output too
        assert report.findings[0].to_dict()["related"][0]["line"] == 12

    def test_rules_listing_grouped_by_category(self, tmp_path):
        run = self._run("--rules", cwd=tmp_path)
        assert run.returncode == 0
        out = run.stdout
        assert out.index("syntactic:") < out.index("dataflow:")
        for rule_id in ("R4", "R5", "F4"):
            assert f"\n  {rule_id} " in out
        assert "\n  F1 " not in out
        # F-rules listed under the dataflow heading, not before it.
        assert out.index("dataflow:") < out.index("\n  F4 ")


# ----------------------------------------------------------------------
# Registry invariants: ids, categories, duplicate rejection
# ----------------------------------------------------------------------
class TestRegistry:
    def test_duplicate_rule_id_rejected_at_registration(self):
        from repro.lint.rules import Rule, register

        with pytest.raises(LintError, match="duplicate rule id"):
            @register
            class Clone(Rule):  # noqa: F811 - the point of the test
                id = "R4"
                summary = "imposter"

    def test_unknown_category_rejected_at_registration(self):
        from repro.lint.rules import Rule, register

        with pytest.raises(LintError, match="unknown category"):
            @register
            class Miscategorized(Rule):
                id = "X1"
                summary = "bad category"
                category = "vibes"

    def test_get_rules_rejects_repeated_ids(self):
        with pytest.raises(LintError, match="more than once"):
            get_rules(["R4", "R4"])

    def test_rules_by_category_covers_every_rule(self):
        from repro.lint import all_rules, rules_by_category

        grouped = rules_by_category()
        assert list(grouped) == ["syntactic", "dataflow"]
        flattened = {r.id for rules in grouped.values() for r in rules}
        assert flattened == {r.id for r in all_rules()}
        assert [r.id for r in all_rules()] == ["F4", "R4", "R5"]
        assert {r.id for r in grouped["syntactic"]} == {"R4", "R5"}
        assert {r.id for r in grouped["dataflow"]} == {"F4"}
