"""Staged Desh training pipeline: typed artifacts + fingerprint caching.

The package runs ``Desh.fit`` as a DAG of cacheable stages
(``parse`` → ``embeddings``/``chains`` → ``phase1`` / ``phase2`` →
``classifier``/``phase3``), each keyed by a
content-addressed fingerprint over its configuration and upstream
fingerprints.  Re-running with an unchanged prefix serves those stages
from the on-disk :class:`ArtifactStore`; editing one stage's config
invalidates exactly that stage and its descendants.

Entry points:

* :class:`DeshPipeline` — train through the DAG (``Desh.fit`` wraps it).
* :func:`save_model` / :func:`load_model` — full-model persistence.
* :func:`cached_transform` — inference-side parse caching.
"""

from .artifacts import Artifact, ArtifactStore
from .facade import DeshPipeline, assemble_model, cached_transform
from .fingerprint import (
    canonical_json,
    fingerprint_payload,
    fingerprint_records,
)
from .persist import MODEL_FORMAT, load_model, save_model
from .runner import (
    LIVE,
    PipelineResult,
    PipelineRunner,
    StagePlan,
    StageReport,
)
from .stage import Stage, StageContext
from .stages import build_desh_stages

__all__ = [
    "Artifact",
    "ArtifactStore",
    "DeshPipeline",
    "LIVE",
    "MODEL_FORMAT",
    "PipelineResult",
    "PipelineRunner",
    "Stage",
    "StageContext",
    "StagePlan",
    "StageReport",
    "assemble_model",
    "build_desh_stages",
    "cached_transform",
    "canonical_json",
    "fingerprint_payload",
    "fingerprint_records",
    "load_model",
    "save_model",
]
