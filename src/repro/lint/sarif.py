"""SARIF 2.1.0 export for deshlint reports.

SARIF (Static Analysis Results Interchange Format) is the log format
GitHub code scanning ingests: uploading one turns deshlint findings
into inline PR annotations.  The writer emits a single-run log with

* ``tool.driver`` carrying every rule that *ran* (id, category tag,
  summary, a ``helpUri`` into the README rule table and a
  ``defaultConfiguration.level`` of :data:`DEFAULT_LEVEL`), not just
  the rules that fired — so a clean run still documents its coverage;
* one ``result`` per finding with the rule id, message, a
  ``physicalLocation`` region (line/column) and the snippet; the
  result ``level`` is :data:`DEFAULT_LEVEL` for every registered rule,
  while engine pseudo-rules (``SYNTAX``, ``SUP``) always gate as
  ``error``;
* ``relatedLocations`` for multi-site dataflow findings — F4 renders
  the read/await/write interleaving window — so code scanning
  annotates every hop, not just the reporting line;
* ``partialFingerprints`` reusing :meth:`Finding.key` — the same
  content-keyed identity the baseline uses — so code-scanning alert
  tracking survives unrelated edits exactly like the baseline does.

File URIs are emitted repo-relative with forward slashes whenever the
linted path sits under the current working directory, which is what
the upload action expects.
"""

from __future__ import annotations

import json
from pathlib import Path, PurePosixPath
from typing import Optional, Sequence

from .engine import LintReport
from .findings import Finding
from .rules import Rule

__all__ = ["DEFAULT_LEVEL", "finding_level", "sarif_log", "write_sarif"]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_URI = "https://github.com/desh-repro/desh-repro"

#: SARIF level of every registered rule: findings annotate as warnings
#: in code scanning, while the CLI's own exit gate fails on any finding.
DEFAULT_LEVEL = "warning"

#: Engine pseudo-rules outside the registry: unparsable files and
#: malformed suppressions always gate hard.
_PSEUDO_LEVELS = {"SYNTAX": "error", "SUP": "error"}


def finding_level(finding: Finding) -> str:
    """SARIF level of *finding*: ``error`` for ``SYNTAX``/``SUP``, else
    :data:`DEFAULT_LEVEL`."""
    return _PSEUDO_LEVELS.get(finding.rule, DEFAULT_LEVEL)


def _help_uri(rule_id: str) -> str:
    """README rule-table anchor for *rule_id*."""
    return f"{_TOOL_URI}/blob/main/README.md#rule-{rule_id.lower()}"


def _relative_uri(path: str, root: Optional[Path]) -> str:
    """*path* as a forward-slash URI, relative to *root* when possible."""
    p = Path(path)
    if root is not None:
        try:
            p = p.resolve().relative_to(root.resolve())
        except (ValueError, OSError):
            pass
    return str(PurePosixPath(*p.parts))


def sarif_log(
    report: LintReport,
    rules: Sequence[Rule],
    *,
    root: Optional[Path] = None,
) -> dict:
    """The SARIF 2.1.0 structure for *report* (rules = what ran)."""
    driver_rules = [
        {
            "id": rule.id,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.summary},
            "helpUri": _help_uri(rule.id),
            "defaultConfiguration": {"level": DEFAULT_LEVEL},
            "properties": {"category": rule.category},
        }
        for rule in sorted(rules, key=lambda r: r.id)
    ]
    results = []
    for finding in report.findings:
        result = {
            "ruleId": finding.rule,
            "level": finding_level(finding),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _relative_uri(finding.path, root),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                            "snippet": {"text": finding.snippet},
                        },
                    }
                }
            ],
            "partialFingerprints": {"deshlintKey/v1": finding.key()},
        }
        if finding.related:
            result["relatedLocations"] = [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _relative_uri(site.path, root),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": site.line,
                            "startColumn": site.col,
                        },
                    },
                    "message": {"text": site.message},
                }
                for site in finding.related
            ]
        results.append(result)
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "deshlint",
                        "informationUri": _TOOL_URI,
                        "rules": driver_rules,
                    }
                },
                "results": results,
            }
        ],
    }


def write_sarif(
    path: str | Path,
    report: LintReport,
    rules: Sequence[Rule],
    *,
    root: Optional[Path] = None,
) -> None:
    """Serialize :func:`sarif_log` to *path* (UTF-8 JSON, one file)."""
    log = sarif_log(report, rules, root=root)
    Path(path).write_text(json.dumps(log, indent=1), encoding="utf-8")
