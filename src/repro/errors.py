"""Exception hierarchy for the Desh reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch package-level failures with a single ``except`` clause
while still distinguishing subsystem-specific faults.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "TopologyError",
    "NodeIdError",
    "LogGenerationError",
    "ParseError",
    "TemplateMinerError",
    "VocabularyError",
    "LabelingError",
    "ShapeError",
    "NotFittedError",
    "TrainingError",
    "ChainExtractionError",
    "PredictionError",
    "DatasetError",
    "SerializationError",
    "IngestError",
    "CheckpointError",
    "PipelineError",
    "ArtifactError",
    "ContractError",
    "LintError",
    "ObservabilityError",
    "ServeError",
    "InjectedFaultError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value was supplied."""


class TopologyError(ReproError, ValueError):
    """A cluster topology constraint was violated."""


class NodeIdError(TopologyError):
    """A Cray node identifier could not be parsed or is out of range."""


class LogGenerationError(ReproError, RuntimeError):
    """The synthetic log generator could not satisfy its constraints."""


class ParseError(ReproError, ValueError):
    """A raw log line could not be parsed."""


class TemplateMinerError(ReproError, RuntimeError):
    """The Drain-style template miner entered an inconsistent state."""


class VocabularyError(ReproError, KeyError):
    """A phrase or phrase id is unknown to the vocabulary."""


class LabelingError(ReproError, ValueError):
    """A phrase label is invalid or a label catalog is malformed."""


class ShapeError(ReproError, ValueError):
    """An array argument had an incompatible shape."""


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring a fitted model was called before fitting."""


class TrainingError(ReproError, RuntimeError):
    """Model training diverged or received unusable data."""


class ChainExtractionError(ReproError, RuntimeError):
    """Failure-chain extraction was given inconsistent event streams."""


class PredictionError(ReproError, RuntimeError):
    """Phase-3 inference failed."""


class DatasetError(ReproError, ValueError):
    """A dataset split or ground-truth join was invalid."""


class SerializationError(ReproError, RuntimeError):
    """A model or vocabulary could not be saved or loaded."""


class IngestError(ReproError, RuntimeError):
    """The hardened ingest front-end exceeded its bad-line error budget."""


class CheckpointError(ReproError, RuntimeError):
    """A training checkpoint could not be written, read, or verified."""


class PipelineError(ReproError, RuntimeError):
    """The staged pipeline DAG is malformed or a stage failed to execute."""


class ArtifactError(ReproError, RuntimeError):
    """A pipeline artifact could not be written, read, or verified."""


class ContractError(ShapeError):
    """A runtime tensor contract (shape/dtype) was violated.

    Derives from :class:`ShapeError` so callers guarding layer inputs
    with ``except ShapeError`` also catch contract violations.
    """


class LintError(ReproError, RuntimeError):
    """deshlint was invoked incorrectly or hit an unreadable input."""


class ObservabilityError(ReproError, RuntimeError):
    """The tracing/metrics layer was misused (type clash, bad merge, ...)."""


class ServeError(ReproError, RuntimeError):
    """The prediction service was misconfigured or hit an internal fault."""


class InjectedFaultError(ReproError, RuntimeError):
    """A chaos-injected service fault (e.g. a worker crash) fired.

    Raised only by fault-injection hooks during chaos soaks; the
    supervisor treats it like any other worker crash and restarts the
    worker.  It must never appear in production paths.
    """
