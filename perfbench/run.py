"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload offline-m1 --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

* ``offline-m1``  — ``Desh.fit`` + repeated ``evaluate_model`` on M1;
* ``serve-flood`` — closed-loop HTTP replay of an M1 stream at capacity;
* ``serve-storm`` — open-loop HTTP replay of an anomaly-dense stream at
  a fixed rate, with on-demand ``/predict`` calls.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  The last line of stdout is always
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and the correctness checks.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402

WORKLOADS = ("offline-m1", "serve-flood", "serve-storm")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    harness.pin_environment()

    if args.workload == "offline-m1":
        from perfbench import offline

        result = offline.run(args.seed, bool(args.trace))
    else:
        from perfbench import serve

        result = serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result.info["env"] = harness.environment_record(args.seed, args.workload)
    missing = harness.unreported(result, bool(args.trace))
    result.check("every manifest metric measured", not missing, len(missing))
    if missing:
        print(f"perfbench: not measured: {', '.join(missing)}", file=sys.stderr)
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
