"""Stage fingerprints and artifacts must not depend on PYTHONHASHSEED.

Fingerprints are SHA-256 digests over canonicalized config payloads
chained through the stage DAG; if any serialization step leaked set or
dict-hash iteration order, the cache key would differ between
interpreter runs and every artifact cache would silently miss.

The artifact store is held to the same standard byte for byte: a cold
pipeline run on the same records must write identical files (payloads
and manifests) under every hash seed.  That catches hash-order leaks
anywhere on the way to an output, set-typed variables included, and any
wall-clock or entropy value (``time.time``, ``uuid4``, ``os.urandom``)
that reaches an artifact.

The same probe then drives the chaos and serve paths off the trained
model and prints one JSON document of their outputs: the faulted line
streams of every line-fault profile, a run of service-fault draws, a
chaos evaluation summary, a fault-free service replay's alerts and a
crash-soak report.  Each of these is fed by a seeded
``np.random.Generator``; a draw from the global NumPy RNG or the stdlib
``random`` module anywhere on those paths makes the document differ
between interpreter runs, so it must be byte-identical under every hash
seed too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_HASH_SEEDS = ("0", "1", "2")

_PROBE = """\
import json
from repro.config import DeshConfig
from repro.pipeline import PipelineRunner, build_desh_stages

runner = PipelineRunner(build_desh_stages(DeshConfig(), train_classifier=True))
print(json.dumps(runner.fingerprints("d" * 64), sort_keys=True))
"""


_STORE_PROBE = """\
import asyncio
import hashlib
import json
import sys

import numpy as np

from repro.config import (
    DeshConfig,
    EmbeddingConfig,
    Phase1Config,
    Phase2Config,
    Phase3Config,
)
from repro.pipeline import DeshPipeline, assemble_model
from repro.resilience import FAULT_PROFILES, ChaosInjector, chaos_evaluation
from repro.serve import PredictionService, ServeConfig, run_soak
from repro.simlog import GeneratorConfig, LogGenerator
from repro.simlog.record import render_line
from repro.topology import ClusterTopology

topology = ClusterTopology(
    cabinet_cols=2,
    cabinet_rows=1,
    chassis_per_cabinet=2,
    slots_per_chassis=2,
    nodes_per_blade=2,
)
log = LogGenerator(topology).generate(
    GeneratorConfig(
        horizon=10 * 3600.0,
        failure_count=80,
        near_miss_ratio=0.5,
        maintenance_count=1,
        background_rate=1 / 180.0,
    ),
    np.random.default_rng(42),
)
train, test = log.split(0.3)
config = DeshConfig(
    embedding=EmbeddingConfig(dim=12, epochs=1),
    phase1=Phase1Config(hidden_size=16, epochs=1, batch_size=128),
    phase2=Phase2Config(hidden_size=32, epochs=5, learning_rate=0.01),
    phase3=Phase3Config(),
    seed=7,
)
result = DeshPipeline(config, cache_dir=sys.argv[1]).run(list(train.records))
model = assemble_model(config, result)
test_lines = [render_line(r) for r in test.records]


def digest(items):
    return hashlib.sha256("\\n".join(map(str, items)).encode()).hexdigest()


async def replay(lines):
    service = PredictionService(
        model, ServeConfig(num_shards=2, dedup_window=100_000)
    )
    await service.start(restore=False)
    await service.ingest_lines(lines)
    await service.stop(checkpoint=False)
    return service.alerts_since(0)


storm = ChaosInjector(FAULT_PROFILES["service-storm"], seed=3)
alerts = sorted(
    ({k: v for k, v in alert.items() if k != "seq"}
     for alert in asyncio.run(replay(test_lines[:1500]))),
    key=lambda alert: (alert["node"], alert["decision_time"]),
)
soak = run_soak(model, test_lines[:1500], "service-crash", seed=3).as_dict()
print(json.dumps(
    {
        "inject": {
            name: digest(ChaosInjector(profile, seed=3).inject(test_lines))
            for name, profile in sorted(FAULT_PROFILES.items())
            if profile.has_line_faults()
        },
        "service_faults": digest(storm.service_faults() for _ in range(500)),
        "chaos": chaos_evaluation(
            model,
            test.records,
            test.ground_truth,
            FAULT_PROFILES["moderate"],
            seed=3,
        ).summary(),
        "replay_alerts": alerts,
        "soak": {
            key: soak[key]
            for key in (
                "bit_identical",
                "alerts",
                "lost",
                "crashes_injected",
                "unhandled_errors",
            )
        },
    },
    sort_keys=True,
))
"""


def _run_probe(probe: str, hashseed: str, *args: str) -> str:
    src_dir = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={
            "PYTHONPATH": str(src_dir),
            "PYTHONHASHSEED": hashseed,
            "PATH": "/usr/bin:/bin",
        },
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _store_files(root: Path) -> list[tuple[str, bytes]]:
    """Every file under *root* as sorted ``(relative path, bytes)`` pairs."""
    return sorted(
        (path.relative_to(root).as_posix(), path.read_bytes())
        for path in root.rglob("*")
        if path.is_file()
    )


def test_stage_fingerprints_identical_across_hash_seeds():
    runs = [json.loads(_run_probe(_PROBE, seed)) for seed in _HASH_SEEDS]
    assert runs[0] == runs[1] == runs[2]
    # Sanity: the probe really produced the full DAG.
    assert len(runs[0]) == 7
    assert all(len(fp) == 64 for fp in runs[0].values())


@pytest.fixture(scope="module")
def store_runs(tmp_path_factory):
    """One store probe per hash seed: ``(seed, stdout, store files)``."""
    runs = []
    for seed in _HASH_SEEDS:
        root = tmp_path_factory.mktemp(f"store{seed}")
        stdout = _run_probe(_STORE_PROBE, seed, str(root))
        runs.append((seed, stdout, _store_files(root)))
    return runs


def test_artifact_store_byte_identical_across_hash_seeds(store_runs):
    stores = [files for _, _, files in store_runs]
    # Sanity: every stage of the DAG landed, each with its manifest.
    names = [name for name, _ in stores[0]]
    assert sum(name.endswith("/artifact.json") for name in names) == 7
    assert any(name.endswith(".npz") for name in names)
    for seed, _, files in store_runs[1:]:
        differing = sorted({name for name, _ in set(files) ^ set(stores[0])})
        assert not differing, (
            f"artifact store differs under PYTHONHASHSEED={seed} vs 0: "
            f"{differing}"
        )


def test_chaos_and_serve_streams_identical_across_hash_seeds(store_runs):
    reference = store_runs[0][1]
    for seed, stdout, _ in store_runs[1:]:
        assert stdout == reference, (
            f"chaos/serve outputs differ under PYTHONHASHSEED={seed} vs 0"
        )
    # Sanity: every path the document covers really ran.
    document = json.loads(reference)
    assert set(document["inject"]) == {
        "mild", "moderate", "severe", "service-storm"
    }
    assert "all lines accounted for: True" in document["chaos"]
    assert document["replay_alerts"]
    soak = document["soak"]
    assert soak["bit_identical"] is True
    assert soak["crashes_injected"] > 0
    assert soak["alerts"] > 0
    assert soak["lost"] == 0 and soak["unhandled_errors"] == []
