"""deshlint — AST-based invariant checking for the Desh reproduction.

The reproduction's trust chain (30/70 split, per-phase seeds,
checkpoint bit-identity) depends on invariants no test exercises
directly: seeded RNG threading, typed errors and an honest public API.
deshlint machine-enforces them:

=====  ==============================================================
R1     RNG discipline — no stdlib ``random``, no module-level
       ``np.random`` samplers; thread ``np.random.Generator`` objects.
R4     Exception hygiene — no bare excepts; broad catches need an
       ``allow[R4]`` justification; raise ``repro.errors`` types.
R5     Public API — docstrings + truthful ``__all__`` everywhere.
=====  ==============================================================

On top of the syntactic rules, the :mod:`repro.lint.flow` package adds
dataflow analyses — a per-function CFG builder, a generic worklist
fixpoint solver and pluggable abstract domains — registered as rules
in the same engine:

=====  ==============================================================
F1     Shape flow — abstract-interpret numpy/``repro.nn`` code against
       the declared ``@tensor_contract`` specs; report *provable*
       shape/dtype mismatches with the inferred shape chain.
F4     Async atomicity — no read-modify-write or check-then-act on
       shared ``self.*`` state across an ``await`` without a common
       ``asyncio.Lock`` held over the window.
=====  ==============================================================

Stage isolation and reproducibility are checked at run time instead:
the pipeline runner hands each stage only its declared deps, and
``tests/test_pipeline_hashseed.py`` compares artifact stores across
hash seeds.

Findings are suppressed inline with ``# deshlint: allow[RULE] reason``
(reason mandatory) or grandfathered via a checked-in baseline file;
``repro lint --sarif`` exports SARIF 2.1.0 for GitHub code scanning.
See ``repro lint --help`` and the README's "Static analysis" section.
"""

from .baseline import Baseline
from .engine import LintReport, lint_modules, lint_paths, lint_source, load_modules
from .findings import Finding
from .rules import (
    ModuleInfo,
    Rule,
    all_rules,
    get_rules,
    register,
    rules_by_category,
)
from .sarif import sarif_log, write_sarif
from .suppressions import Suppression, SuppressionIndex, parse_suppressions

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "ModuleInfo",
    "Rule",
    "Suppression",
    "SuppressionIndex",
    "all_rules",
    "get_rules",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "load_modules",
    "parse_suppressions",
    "register",
    "rules_by_category",
    "sarif_log",
    "write_sarif",
]
