"""Tier-1 self-lint gate: the repo's own source must pass deshlint.

This is the same check CI runs via ``repro lint``: every rule (the
syntactic R4, R5 and the dataflow F4) over the installed ``repro``
package.  Any finding turns the suite red.
"""

import random
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.lint import lint_paths
from repro.lint.engine import lint_modules, load_modules

PACKAGE_DIR = Path(repro.__file__).resolve().parent


def test_repro_package_is_lint_clean():
    report = lint_paths([PACKAGE_DIR])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"deshlint found violations:\n{rendered}"
    assert report.modules > 90  # the walk really covered the package


def _write_violation_tree(root: Path) -> Path:
    """A small package tree whose two modules race on shared state (F4)."""
    pkg = root / "victim"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Pkg."""\n\n__all__ = []\n')
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
    *findings, summary = stdout.splitlines()
    assert summary.startswith("deshlint: ")
    assert len(findings) >= 3
    assert all(" F4 " in line for line in findings)


def test_report_invariant_under_module_discovery_order(tmp_path):
    """Shuffling the module list must not change the report.

    Rules see modules one at a time in discovery order, and the final
    sort puts findings back in location order; a rule that carried
    state from one module to the next would leak it here.
    """
    pkg = _write_violation_tree(tmp_path)
    modules, errors = load_modules([pkg])
    assert len(modules) >= 3 and not errors
    reference = lint_modules(modules)
    expected = [f.to_dict() for f in reference.findings]
    for seed in (0, 1, 2):
        shuffled = list(modules)
        random.Random(seed).shuffle(shuffled)
        report = lint_modules(shuffled)
        assert [f.to_dict() for f in report.findings] == expected
