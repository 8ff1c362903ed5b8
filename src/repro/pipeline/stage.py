"""The ``Stage`` protocol: one cacheable unit of pipeline work.

A stage declares its ``name``, the names of its upstream ``deps``, a
JSON-stable :meth:`Stage.config_payload` (the stage's contribution to
its cache fingerprint), a :meth:`Stage.run` that computes the stage
value from the context, and a ``save``/``load`` codec pair so the
artifact store can materialize the value on disk.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from ..config import DeshConfig
from ..errors import PipelineError
from ..simlog.record import LogRecord

__all__ = ["Stage", "StageContext"]


@dataclass
class StageContext:
    """Everything a stage may read while running.

    The runner hands every ``Stage.run`` and ``Stage.load`` its own
    context: ``inputs`` maps exactly the stage's declared ``deps`` to
    their computed values, and ``records`` holds the raw input records
    only for a ``consumes_source`` stage (``()`` otherwise), so a stage
    can read nothing its cache fingerprint does not chain on.
    ``checkpoint_root`` (when set) lets training stages write
    epoch-granular crash checkpoints under ``<root>/<stage-name>``.
    """

    config: DeshConfig
    records: Sequence[LogRecord] = ()
    inputs: dict[str, object] = field(default_factory=dict)
    checkpoint_root: Optional[Path] = None

    def value(self, stage: str) -> object:
        """The computed value of a declared upstream stage.

        Raises :class:`~repro.errors.PipelineError` when *stage* is not
        among the deps the runner populated.
        """
        try:
            return self.inputs[stage]
        except KeyError:
            raise PipelineError(
                f"stage read artifact {stage!r}, which is not among its "
                f"declared deps {tuple(self.inputs)}"
            ) from None

    def span(self, name: str, **attributes: object):
        """A tracing span for work inside this pipeline run.

        Opens a child of the active span on the process tracer (the
        runner wraps every ``Stage.run`` in a ``stage:<name>`` span, so
        stage-internal spans nest under their stage automatically).  A
        no-op under the default :class:`~repro.obs.NullTracer`.
        """
        from ..obs import current_tracer

        return current_tracer().span(name, **attributes)

    def checkpoint_for(self, stage: str):
        """A :class:`CheckpointManager` for *stage*, or ``None``."""
        if self.checkpoint_root is None:
            return None
        from ..resilience.checkpoint import CheckpointManager

        return CheckpointManager(Path(self.checkpoint_root) / stage)


class Stage(abc.ABC):
    """One named, fingerprintable, cacheable pipeline stage."""

    #: Unique stage name (also the artifact-store subdirectory).
    name: str = ""
    #: Names of upstream stages whose values this stage consumes.
    deps: tuple[str, ...] = ()
    #: Whether the raw input records feed this stage directly (source
    #: stages mix the data fingerprint into their cache key).
    consumes_source = False

    @abc.abstractmethod
    def config_payload(self) -> object:
        """JSON-serializable configuration that keys this stage's cache."""

    @abc.abstractmethod
    def run(self, ctx: StageContext) -> object:
        """Compute the stage value from upstream inputs (and records)."""

    @abc.abstractmethod
    def save(self, value: object, directory: Path) -> None:
        """Write the stage value into an artifact directory."""

    @abc.abstractmethod
    def load(self, directory: Path, ctx: StageContext) -> object:
        """Rebuild the stage value from an artifact directory."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.name} deps={self.deps}>"
