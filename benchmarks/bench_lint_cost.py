"""Lint cost benchmark: a full-repo deshlint pass must stay cheap.

The self-lint gate runs in tier-1 CI on every push, so its wall time is
part of the edit-test loop.  Budget: one full pass over ``src/repro``
(~130 modules, syntactic *and* dataflow rules, suppressions + baseline
applied) in under 15 seconds.  The super-linear pieces are
timed separately to catch complexity regressions early:

* the F1/F4 dataflow pass builds a CFG per function and iterates
  the shape domain to a fixpoint;
* the F4 async pass adds the lockset fixpoint per coroutine.

Every registered rule is also timed *individually* over a single
pre-parsed module set, so a budget failure names the rules actually
responsible instead of just the family.
"""

from __future__ import annotations

import time
from pathlib import Path

import repro
from repro.lint import all_rules, get_rules, lint_paths
from repro.lint.engine import lint_modules, load_modules

BUDGET_SECONDS = 15.0
PACKAGE_DIR = Path(repro.__file__).resolve().parent

#: Rule ids by analysis family, kept in sync with Rule.category.
SYNTACTIC = ["R1", "R4", "R5"]
DATAFLOW = ["F1", "F4"]
#: The async-aware subset of the dataflow family.
ASYNC_RULES = ["F4"]


def _timed_lint(rules=None) -> "tuple[float, int]":
    start = time.perf_counter()
    report = lint_paths([PACKAGE_DIR], rules=rules)
    return time.perf_counter() - start, report.modules


def _per_rule_seconds(modules) -> "dict[str, float]":
    """Wall seconds per registered rule over pre-parsed *modules*.

    Parsing is paid once up front (``load_modules``), so these numbers
    isolate each rule's analysis cost — the thing a complexity
    regression actually changes.
    """
    seconds: "dict[str, float]" = {}
    for rule in all_rules():
        start = time.perf_counter()
        lint_modules(modules, rules=get_rules([rule.id]))
        seconds[rule.id] = time.perf_counter() - start
    return seconds


def test_rule_family_constants_match_registry():
    by_category = {
        "syntactic": SYNTACTIC,
        "dataflow": DATAFLOW,
    }
    registered = {}
    for rule in all_rules():
        registered.setdefault(rule.category, []).append(rule.id)
    assert registered == by_category
    assert set(ASYNC_RULES) <= set(DATAFLOW)


def test_full_repo_lint_under_budget(capsys):
    # Warm-up pass so interpreter/bytecode costs don't pollute the number.
    _timed_lint()

    full_seconds, modules = _timed_lint()
    syntactic_seconds, _ = _timed_lint(rules=get_rules(SYNTACTIC))
    dataflow_seconds, _ = _timed_lint(rules=get_rules(DATAFLOW))
    async_seconds, _ = _timed_lint(rules=get_rules(ASYNC_RULES))

    parsed, _errors = load_modules([PACKAGE_DIR])
    per_rule = _per_rule_seconds(parsed)
    slowest = sorted(per_rule, key=per_rule.get, reverse=True)

    with capsys.disabled():
        print()
        print(
            f"full lint (R/F)          {full_seconds:6.2f}s  "
            f"({modules} modules)"
        )
        print(f"  syntactic (R1, R4, R5) {syntactic_seconds:6.2f}s")
        print(f"  dataflow (F1, F4)      {dataflow_seconds:6.2f}s")
        print(f"    F4 async pass        {async_seconds:6.2f}s")
        print("  per rule (parse excluded):")
        for rule_id in slowest:
            print(f"    {rule_id:<4}                 {per_rule[rule_id]:6.2f}s")
        print(f"budget                   {BUDGET_SECONDS:6.2f}s")

    top3 = ", ".join(
        f"{rule_id}={per_rule[rule_id]:.2f}s" for rule_id in slowest[:3]
    )
    assert modules > 90
    assert full_seconds < BUDGET_SECONDS, (
        f"full-repo lint took {full_seconds:.2f}s, budget is "
        f"{BUDGET_SECONDS:.1f}s; slowest rules: {top3}"
    )
    # No family may dwarf the budget on its own: each pass runs per
    # function, so a superlinear regression shows up here first — the
    # assertion message names the individual rules responsible.
    assert dataflow_seconds < BUDGET_SECONDS, f"slowest rules: {top3}"
    assert async_seconds < BUDGET_SECONDS, f"slowest rules: {top3}"
