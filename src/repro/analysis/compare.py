"""Table-10-style model-zoo comparison harness.

The paper's Table 10 compares Desh against baseline predictors on the
same data; this module runs the same head-to-head for the model zoo:
every requested backbone family (``lstm`` / ``tcn``) trains and
evaluates on every requested synthetic system, and the grid reports
the Table-6 classification metrics, the mean lead time, and the
per-prediction latency measured by the existing
``phase3.prediction_ms`` histogram.

Two presets are provided: ``paper`` trains with the Table-5
hyperparameters (the numbers checked into EXPERIMENTS.md), ``tiny``
shrinks every network and epoch count to CI-smoke scale so the full
grid finishes in seconds.

Entry points: :func:`compare_models` (library) and ``repro compare``
(CLI).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..config import DeshConfig, EmbeddingConfig, Phase1Config, Phase2Config
from ..core.desh import Desh
from ..errors import ConfigError
from ..nn.registry import get_model
from ..obs import MetricsRegistry, activate_metrics
from ..simlog import generate_system
from .evaluation import evaluate_model
from .leadtime import lead_time_overall
from .report import render_table

__all__ = [
    "CompareCell",
    "CompareResult",
    "COMPARE_PRESETS",
    "preset_config",
    "compare_models",
]

#: Preset names accepted by :func:`preset_config`.
COMPARE_PRESETS = ("paper", "tiny")


@dataclass(frozen=True)
class CompareCell:
    """One (model, system) cell of the comparison grid."""

    model: str
    system: str
    recall: float
    precision: float
    accuracy: float
    f1: float
    mean_lead_seconds: float
    lead_count: int
    prediction_p50_ms: float
    prediction_count: int
    train_seconds: float


@dataclass(frozen=True)
class CompareResult:
    """The full grid plus the run parameters that produced it."""

    cells: tuple
    preset: str
    seed: int
    train_fraction: float

    def to_dict(self) -> dict:
        """JSON-serializable payload of the grid."""
        return {
            "preset": self.preset,
            "seed": self.seed,
            "train_fraction": self.train_fraction,
            "cells": [dataclasses.asdict(c) for c in self.cells],
        }

    def to_json(self) -> str:
        """The grid as an indented JSON document."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """The grid as an aligned ASCII table (Table-10 layout)."""
        headers = [
            "model",
            "system",
            "recall%",
            "acc%",
            "prec%",
            "F1%",
            "lead(s)",
            "p50(ms)",
            "train(s)",
        ]
        rows = [
            [
                c.model,
                c.system,
                c.recall,
                c.accuracy,
                c.precision,
                c.f1,
                c.mean_lead_seconds,
                c.prediction_p50_ms,
                c.train_seconds,
            ]
            for c in self.cells
        ]
        title = (
            f"model zoo comparison (preset={self.preset}, seed={self.seed})"
        )
        return render_table(headers, rows, title=title)


def preset_config(
    preset: str,
    *,
    seed: int,
    model: str,
    model_params: Mapping[str, object] | None = None,
) -> DeshConfig:
    """The :class:`DeshConfig` for one grid cell.

    ``paper`` keeps every Table-5 default; ``tiny`` is the CI-smoke
    scale used by the test suite's mini-configs (single-epoch
    embeddings and phase-1, a 32-unit phase-2 regressor).
    """
    params = dict(model_params or {})
    if preset == "paper":
        return DeshConfig(seed=seed, model=model, model_params=params)
    if preset == "tiny":
        return DeshConfig(
            embedding=EmbeddingConfig(dim=12, epochs=1),
            phase1=Phase1Config(hidden_size=16, epochs=1, batch_size=128),
            phase2=Phase2Config(hidden_size=32, epochs=40, learning_rate=0.01),
            seed=seed,
            model=model,
            model_params=params,
        )
    known = ", ".join(COMPARE_PRESETS)
    raise ConfigError(f"unknown preset {preset!r} (presets: {known})")


def _run_cell(
    model_name: str,
    system: str,
    *,
    preset: str,
    seed: int,
    train_fraction: float,
    model_params: Mapping[str, object] | None,
    cache_dir: Optional[str],
) -> CompareCell:
    """Train + evaluate one backbone family on one system."""
    config = preset_config(
        preset, seed=seed, model=model_name, model_params=model_params
    )
    log = generate_system(system, seed=seed)
    train, test = log.split(train_fraction)
    started = time.perf_counter()
    model = Desh(config).fit(
        list(train.records), train_classifier=False, cache_dir=cache_dir
    )
    train_seconds = time.perf_counter() - started

    registry = MetricsRegistry(active=True)
    with activate_metrics(registry):
        result = evaluate_model(model, list(test.records), test.ground_truth)
    lead = lead_time_overall(result)
    hist = registry.get("phase3.prediction_ms")
    p50 = hist.quantile(0.5) if hist is not None and hist.count else 0.0
    count = hist.count if hist is not None else 0
    m = result.metrics
    return CompareCell(
        model=model_name,
        system=system,
        recall=float(m.recall),
        precision=float(m.precision),
        accuracy=float(m.accuracy),
        f1=float(m.f1),
        mean_lead_seconds=float(lead.mean),
        lead_count=int(lead.count),
        prediction_p50_ms=float(p50),
        prediction_count=int(count),
        train_seconds=float(train_seconds),
    )


def compare_models(
    models: Sequence[str],
    systems: Sequence[str],
    *,
    preset: str = "paper",
    seed: int = 2018,
    train_fraction: float = 0.30,
    model_params: Mapping[str, Mapping[str, object]] | None = None,
    cache_dir: Optional[str] = None,
) -> CompareResult:
    """Run the full models x systems grid.

    Every model name is validated against the registry up front, so a
    typo fails before any training starts.  ``model_params`` optionally
    maps a model name to its hyperparameter overrides.  ``cache_dir``
    routes each cell's training through the artifact store — the
    model-aware stage fingerprints keep per-family artifacts separate,
    so repeat grids are warm.
    """
    if not models:
        raise ConfigError("compare needs at least one model")
    if not systems:
        raise ConfigError("compare needs at least one system")
    for name in models:
        get_model(name)  # fail fast on typos, before any training
    overrides = dict(model_params or {})
    cells = []
    for name in models:
        for system in systems:
            cells.append(
                _run_cell(
                    name,
                    system,
                    preset=preset,
                    seed=seed,
                    train_fraction=train_fraction,
                    model_params=overrides.get(name),
                    cache_dir=cache_dir,
                )
            )
    return CompareResult(
        cells=tuple(cells),
        preset=preset,
        seed=seed,
        train_fraction=train_fraction,
    )
