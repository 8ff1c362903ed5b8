"""Server process of the serve workloads: ``repro serve`` as a user runs it.

    python3 perfbench/launcher.py --model-dir DIR --report FILE [--trace 1]

Runs ``repro.cli.main(["serve", "--model-dir", DIR, "--port", "0"])``
(so ``run_server`` with the CLI's defaults) until SIGINT, which triggers
the service's graceful shutdown.  With ``--trace 1`` the server-side
layer functions are wrapped first (see :mod:`perfbench.serve_layers`).
On exit it writes FILE: the process's peak RSS and, when traced, its
spans and layer counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.pin_environment()

    recorder = probes = None
    if args.trace:
        from perfbench import serve_layers
        from perfbench.spans import SpanRecorder

        recorder = SpanRecorder()
        probes = serve_layers.install(recorder)

    from repro.cli import main as repro_main

    code = repro_main(["serve", "--model-dir", args.model_dir, "--port", "0"])
    report = {"exit": code, "peak_rss_mb": harness.peak_rss_mb()}
    if recorder is not None:
        recorder.dump(args.report + ".spans", extra=probes.as_dict())
    Path(args.report).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
