"""Runtime gate for orphaned coroutines.

``pyproject.toml`` turns the interpreter's "coroutine ... was never
awaited" warning into a test failure.  This test runs pytest under that
configuration on a throwaway test file that leaks a coroutine.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_LEAKY_TEST = '''
async def work():
    return 1


def test_call():
    work()
'''


def test_unawaited_coroutine_fails_the_suite(tmp_path):
    test_file = tmp_path / "test_probe.py"
    test_file.write_text(_LEAKY_TEST)
    run = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-p",
            "no:cacheprovider",
            "-c",
            str(PYPROJECT),
            str(test_file),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    output = run.stdout + run.stderr
    assert run.returncode != 0, output
    assert "was never awaited" in output
