"""Tier-1 self-lint gate: the repo's own source must pass deshlint.

This is the same check CI runs via ``repro lint``: every rule (the
syntactic R1, R4, R5 and the dataflow F4) over the installed
``repro`` package, with the checked-in baseline applied.
Any new finding turns the suite red.
"""

import json
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.lint import Baseline, get_rules, lint_paths
from repro.lint.engine import lint_modules, load_modules

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = Path(repro.__file__).resolve().parent
BASELINE_PATH = REPO_ROOT / "lint-baseline.json"


def test_repro_package_is_lint_clean():
    baseline = Baseline.load(BASELINE_PATH) if BASELINE_PATH.exists() else None
    report = lint_paths([PACKAGE_DIR], baseline=baseline)
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"deshlint found new violations:\n{rendered}"
    assert report.modules > 90  # the walk really covered the package


def test_baseline_carries_no_stale_entries():
    """Every baseline entry must still match a real finding.

    A stale entry means someone fixed a grandfathered violation without
    regenerating the baseline — the budget should shrink with the debt.
    """
    if not BASELINE_PATH.exists():
        return
    baseline = Baseline.load(BASELINE_PATH)
    report = lint_paths([PACKAGE_DIR], baseline=baseline)
    assert len(report.baselined) == len(baseline), (
        "lint-baseline.json has entries no finding consumes; regenerate it "
        "with `repro lint --update-baseline`"
    )


def test_dataflow_rules_clean_with_empty_baseline():
    """F4 holds over the tree without grandfathered debt.

    The dataflow analysis was introduced with a clean slate: the
    checked-in baseline must stay empty, and running only the F rule
    (no baseline at all) must produce zero findings.  If an analysis change
    starts flagging the repo, fix or ``allow[...]``-annotate the site —
    don't grandfather it.
    """
    entries = json.loads(BASELINE_PATH.read_text())["entries"]
    assert entries == [], "lint-baseline.json must stay empty"
    report = lint_paths(
        [PACKAGE_DIR],
        rules=get_rules(["F4"]),
    )
    rendered = "\n".join(f.render() for f in report.findings)
    assert not report.findings, f"dataflow rules flag the repo:\n{rendered}"


def _write_violation_tree(root: Path) -> Path:
    """A small package tree with violations from every rule family."""
    pkg = root / "victim"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Pkg."""\n\n__all__ = []\n')
    (pkg / "rng.py").write_text(
        '"""Doc."""\n\nimport random\n\n__all__ = []\n'
    )
    (pkg / "registry.py").write_text(
        textwrap.dedent(
            '''
            """Doc."""

            import asyncio

            __all__ = ["Registry"]


            class Registry:
                """Admits each key once, racily."""

                def __init__(self) -> None:
                    self.seen: set = set()

                async def admit(self, key: str) -> None:
                    """Check, yield, then act on the shared set."""
                    if key not in self.seen:
                        await asyncio.sleep(0)
                        self.seen.add(key)
            '''
        ).lstrip()
    )
    (pkg / "ledger.py").write_text(
        textwrap.dedent(
            '''
            """Doc."""

            import asyncio

            __all__ = ["Ledger"]


            class Ledger:
                """Moves an amount between two balances, racily."""

                def __init__(self) -> None:
                    self.a_lock = asyncio.Lock()
                    self.b_lock = asyncio.Lock()
                    self.credit = 0
                    self.debit = 0

                async def transfer(self, amount: int) -> None:
                    """Read under both locks, yield, write unlocked."""
                    async with self.a_lock, self.b_lock:
                        credit = self.credit
                        debit = self.debit
                    await asyncio.sleep(0)
                    self.credit = credit + amount
                    self.debit = debit - amount
            '''
        ).lstrip()
    )
    return pkg


def test_lint_output_byte_identical_across_hash_seeds(tmp_path):
    """Determinism gate: stdout and SARIF are byte-identical under
    PYTHONHASHSEED 0, 1 and 2.

    The dataflow rule walks dicts and sets of attribute and lock names —
    the ledger victim's findings render a two-lock set — so any
    hash-order leak shows up as reordered findings or messages the
    moment the hash seed moves, and every run must collapse to one byte
    string.
    """
    pkg = _write_violation_tree(tmp_path)
    src = Path(repro.__file__).resolve().parents[1]
    outputs = set()
    for seed in ("0", "1", "2"):
        sarif = tmp_path / f"seed{seed}.sarif"
        run = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "lint",
                str(pkg),
                "--no-baseline",
                "--sarif",
                str(sarif),
            ],
            cwd=tmp_path,
            env={
                "PYTHONPATH": str(src),
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
            },
            capture_output=True,
            text=True,
        )
        assert run.returncode == 1, run.stderr
        outputs.add((run.stdout, sarif.read_bytes()))
    assert len(outputs) == 1, "lint output varies with the hash seed"
    stdout = next(iter(outputs))[0]
    for rule in ("R1", "F4"):
        assert rule in stdout
    assert sum(" F4 " in line for line in stdout.splitlines()) >= 3


def test_report_invariant_under_module_discovery_order(tmp_path):
    """Shuffling the module list must not change the report.

    Rules see modules one at a time in discovery order, and the final
    sort puts findings back in location order; a rule that carried
    state from one module to the next would leak it here.
    """
    pkg = _write_violation_tree(tmp_path)
    modules, errors = load_modules([pkg])
    assert len(modules) >= 4 and not errors
    baseline_report = lint_modules(modules)
    expected = [f.to_dict() for f in baseline_report.findings]
    for seed in (0, 1, 2):
        shuffled = list(modules)
        random.Random(seed).shuffle(shuffled)
        report = lint_modules(shuffled)
        assert [f.to_dict() for f in report.findings] == expected
