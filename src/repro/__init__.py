"""repro — a full reproduction of Desh (Das et al., HPDC 2018).

Desh (Deep Learning for System Health) predicts *which* HPC compute node
will fail and *in how many minutes*, by mining unstructured system logs
with a three-phase stacked-LSTM pipeline.  This package reimplements the
complete system and every substrate it depends on:

* :mod:`repro.simlog` — a synthetic Cray-style log generator with exact
  ground truth (substituting for the paper's proprietary 373GB logs),
* :mod:`repro.parsing` — tokenization, Drain-style template mining,
  phrase encoding and Safe/Unknown/Error labeling,
* :mod:`repro.nn` — a from-scratch NumPy neural substrate (LSTM + BPTT,
  skip-gram embeddings, SGD/RMSprop/Adam),
* :mod:`repro.core` — the three Desh phases and the ``Desh`` facade,
* :mod:`repro.pipeline` — the staged training pipeline: typed stage
  artifacts, fingerprint-keyed caching and full-model persistence,
* :mod:`repro.analysis` — every metric, table and figure of the paper's
  evaluation,
* :mod:`repro.baselines` — DeepLog, n-gram and severity-keyword
  comparators,
* :mod:`repro.io`, :mod:`repro.topology` — supporting substrates.

Quickstart::

    from repro import Desh, DeshConfig, generate_system

    log = generate_system("M3", seed=7)
    train, test = log.split(0.3)
    model = Desh(DeshConfig()).fit(list(train.records))
    for warning in model.warn(test.records):
        print(warning.message())
"""

from .config import (
    DeshConfig,
    EmbeddingConfig,
    Phase1Config,
    Phase2Config,
    Phase3Config,
)
from .core import Desh, DeshModel, FailureWarning
from .errors import ReproError
from .pipeline import ArtifactStore, DeshPipeline, load_model, save_model
from .events import EventSequence, Label, ParsedEvent
from .simlog import generate_system, SYSTEM_PRESETS
from .topology import ClusterTopology, CrayNodeId

__version__ = "1.0.0"

__all__ = [
    "Desh",
    "DeshModel",
    "DeshConfig",
    "EmbeddingConfig",
    "Phase1Config",
    "Phase2Config",
    "Phase3Config",
    "FailureWarning",
    "ReproError",
    "ArtifactStore",
    "DeshPipeline",
    "save_model",
    "load_model",
    "EventSequence",
    "Label",
    "ParsedEvent",
    "generate_system",
    "SYSTEM_PRESETS",
    "ClusterTopology",
    "CrayNodeId",
    "__version__",
]
