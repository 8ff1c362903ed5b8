"""Shared plumbing: environment pinning, statistics, matching, results.

Everything here is pure arithmetic or process bookkeeping, so the rules
the benchmark's numbers depend on (the percentile rule, alert matching,
open-loop lateness) are unit-tested in ``perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in the root .gitignore).
OUT = ROOT / ".bench_out"

#: One BLAS/OpenMP thread per process: the generator and the server are
#: the two busy threads on a 2-CPU box; extra BLAS threads would compete
#: with the event loops instead of helping them.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pin_environment() -> None:
    """Apply :data:`PINNED_ENV` (call before numpy is imported) and put
    the checkout's ``src`` on the import path; exit 2 if it is absent."""
    os.environ.update(PINNED_ENV)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for the server process: pinned, unbuffered, on src."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def environment_record(seed: int, workload: str) -> dict:
    """What the numbers were measured on: sha, seed, CPUs, versions."""
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: the record says unknown
        pass
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size of process *pid* since it exec'd, in MiB.

    Read from the kernel's high-water mark (``VmHWM``), not from
    ``getrusage``: Linux carries ``ru_maxrss`` across fork and exec, so a
    process started by a larger one would report its parent's size."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid != "self":
        raise RuntimeError(f"no VmHWM for process {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float, *, min_beyond: int = 10) -> Optional[float]:
    """The *q*-quantile of *samples*, or ``None`` when fewer than
    *min_beyond* samples lie beyond it (so p99 needs >= 1000 samples,
    p50 >= 20).  Uses the nearest-rank rule on sorted samples."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n - 1e-9))  # nearest rank, 1-based
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def ms(seconds: Optional[float]) -> Optional[float]:
    """Seconds to milliseconds, passing ``None`` (no value) through."""
    return None if seconds is None else seconds * 1e3


def median(samples: Sequence[float]) -> float:
    """Plain median (for repeats inside one run)."""
    return statistics.median(samples)


def open_loop_lateness(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """Per-request lateness of an open-loop generator: how long after its
    due time each request actually left (never negative: a request sent
    early still counts as on time)."""
    if len(due) != len(sent):
        raise ValueError("due and sent must pair up")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def scaled_schedule(timestamps: Sequence[float], rate: float) -> list[float]:
    """Due offsets (seconds from start) that keep the log's own gaps but
    scale them so the mean rate is *rate* lines/s."""
    if not timestamps:
        return []
    first, last = timestamps[0], timestamps[-1]
    span = last - first
    if span <= 0:
        return [0.0] * len(timestamps)
    factor = (len(timestamps) / rate) / span
    return [(t - first) * factor for t in timestamps]


def alert_key(node: str, decision_time: float) -> tuple[str, float]:
    """The identity an alert shares with the line that triggered it."""
    return (node, float(decision_time))


def match_alerts(
    alerts: Sequence[tuple[tuple[str, float], float]],
    triggers: Mapping[tuple[str, float], int],
    due: Sequence[float],
) -> tuple[list[float], list[tuple[str, float]]]:
    """Line→alert latencies: for each ``(key, receipt_time)`` alert, the
    receipt time minus the due time of its triggering line.

    Several lines can share one ``(node, decision_time)``; *triggers*
    says which line index actually raised the alert (taken from the
    in-process reference replay), so the latency is measured from that
    line, not from the first or last line with the same key.  Returns
    ``(latencies, unmatched_keys)``.
    """
    latencies: list[float] = []
    unmatched: list[tuple[str, float]] = []
    for key, received in alerts:
        index = triggers.get(key)
        if index is None:
            unmatched.append(key)
            continue
        latencies.append(received - due[index])
    return latencies, unmatched


def canonical_alerts(alerts: Iterable[Mapping]) -> list[str]:
    """Order-free, sequence-free form of an alert stream (as the soak
    harness compares them): each alert minus ``seq``, JSON-encoded,
    sorted by (node, decision_time) then content."""
    rows = [
        {k: v for k, v in alert.items() if k != "seq"} for alert in alerts
    ]
    rows.sort(key=lambda a: (a["node"], a["decision_time"],
                             json.dumps(a, sort_keys=True)))
    return [json.dumps(a, sort_keys=True) for a in rows]


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def unreported(result: "Result", trace: bool) -> list[str]:
    """Metrics ``BENCHMARK.json`` lists for this mode (``end_to_end``
    untraced, ``per_layer`` traced) that *result* does not hold."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = manifest["per_layer" if trace else "end_to_end"]
    return [m["name"] for m in wanted if m["name"] not in result.metrics]


class Result:
    """Attempted/failed accounting plus metrics, printed as the last line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.metrics: dict[str, dict] = {}
        self.info: dict = {}

    def check(self, name: str, ok: bool, failed_ops: int = 1) -> bool:
        """Record a correctness check; a failed one counts as failed ops."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.failed += max(1, failed_ops)
            print(f"perfbench: check failed: {name}", file=sys.stderr)
        return ok

    def metric(self, name: str, value: Optional[float], unit: str) -> None:
        """Report *name*; ``None`` (too few samples) leaves it out."""
        if value is not None:
            self.metrics[name] = {"value": float(value), "unit": unit}

    def emit(self) -> None:
        """Print the info line, then the result line (always last)."""
        print(json.dumps({"info": self.info, "checks": self.checks},
                         sort_keys=True, default=str))
        correct = all(self.checks.values()) and self.failed == 0
        print(json.dumps({
            "correct": correct,
            "attempted": max(1, int(self.attempted)),
            "failed": int(self.failed),
            "metrics": self.metrics,
        }))
        sys.stdout.flush()
