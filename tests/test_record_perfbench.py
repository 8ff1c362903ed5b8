"""Tests for ``benchmarks/record_perfbench.py`` (perfbench rows -> BENCH file)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "record_perfbench.py"


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("record_perfbench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["record_perfbench"] = module
    spec.loader.exec_module(module)
    return module


def _run_output(workload, seed, metrics, correct=True):
    info = {
        "info": {"env": {"workload": workload, "seed": seed, "git_sha": "abc123"}},
        "checks": {"ok": correct},
    }
    result = {"correct": correct, "attempted": 9, "failed": 0, "metrics": metrics}
    return "progress chatter\n" + json.dumps(info) + "\n" + json.dumps(result) + "\n"


def test_rows_append_to_a_temporary_bench_file(recorder, tmp_path, capsys):
    plain = tmp_path / "plain.out"
    plain.write_text(_run_output("offline-m1", 7, {"latency_ms": 512.5, "train_s": 4.1}))
    traced = tmp_path / "traced.out"
    traced.write_text(_run_output("serve-flood", 3, {"parsing.encode_us": 9.5}, False))
    out = tmp_path / "BENCH_perfbench.json"

    assert recorder.main(["--side", "parent", "--out", str(out), str(plain)]) == 0
    assert recorder.main(["--side", "change", "--out", str(out), str(traced)]) == 0

    text = out.read_text()
    assert text.splitlines()[0] == "[" and len(text.splitlines()) == 4  # a row a line
    rows = json.loads(text)
    assert rows == [
        {
            "workload": "offline-m1", "seed": 7, "trace": 0, "git_sha": "abc123",
            "side": "parent", "correct": True,
            "metrics": {"latency_ms": 512.5, "train_s": 4.1},
        },
        {
            "workload": "serve-flood", "seed": 3, "trace": 1, "git_sha": "abc123",
            "side": "change", "correct": False,
            "metrics": {"parsing.encode_us": 9.5},
        },
    ]
    assert "(2 total)" in capsys.readouterr().out


def test_truncated_output_is_rejected(recorder):
    with pytest.raises(ValueError, match="result line"):
        recorder.parse_run('{"correct": true}\n', "change", frozenset())
