"""Append perfbench runs to the checked-in ``BENCH_perfbench.json``.

Each ``perfbench/run.py`` run prints an info line (checks and the
environment record) and, last, a result line.  This script reads the
saved stdout of one or more runs and appends one row per run::

    python3 perfbench/run.py --workload offline-m1 --seed 7 --seconds 15 \\
        --trace 0 > run.out
    python3 benchmarks/record_perfbench.py --side change run.out

Row: ``{workload, seed, trace, git_sha, side, correct, metrics}``.
``trace`` is 1 when the run printed per-layer metrics (``BENCHMARK.json``'s
``per_layer`` names), else 0.  ``side`` says which tree of a
before/after comparison ran: ``parent`` or ``change``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_perfbench.json"
SIDES = ("parent", "change")


def _per_layer_names() -> frozenset[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return frozenset(m["name"] for m in manifest["per_layer"])


def parse_run(text: str, side: str, per_layer: frozenset[str]) -> dict:
    """One row from one run's stdout: its last two non-empty lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("perfbench output needs an info line and a result line")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    env = info["env"]
    metrics = result["metrics"]
    return {
        "workload": env["workload"],
        "seed": env["seed"],
        "trace": int(any(name in per_layer for name in metrics)),
        "git_sha": env["git_sha"],
        "side": side,
        "correct": result["correct"],
        "metrics": metrics,
    }


def append_rows(path: Path, rows: list[dict]) -> list[dict]:
    """Append *rows* to the JSON list at *path* (created if missing).

    One row per line, so an append shows in a diff as added lines.
    """
    existing = json.loads(path.read_text()) if path.exists() else []
    existing.extend(rows)
    body = ",\n".join(json.dumps(row, sort_keys=True) for row in existing)
    path.write_text(f"[\n{body}\n]\n")
    return existing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", required=True, choices=SIDES)
    parser.add_argument("--out", type=Path, default=BENCH_JSON)
    parser.add_argument("runs", nargs="+", type=Path,
                        help="saved stdout of perfbench runs")
    args = parser.parse_args(argv)
    per_layer = _per_layer_names()
    rows = [parse_run(p.read_text(), args.side, per_layer) for p in args.runs]
    total = append_rows(args.out, rows)
    print(f"{args.out}: +{len(rows)} rows ({len(total)} total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
