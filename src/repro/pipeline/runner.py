"""Execute a stage DAG with fingerprint caching and per-stage accounting.

:class:`PipelineRunner` validates the DAG once (unique names, known
deps, no cycles), computes every stage's cache fingerprint by chaining
config payloads through dependency edges, and then runs the stages in
topological order — serving any stage whose fingerprint already exists
in the :class:`~repro.pipeline.artifacts.ArtifactStore` from disk and
computing + materializing the rest.  A corrupt cached artifact is
treated as a miss (recomputed and re-saved), never a crash.

Each stage runs (or loads) against its own
:class:`~repro.pipeline.stage.StageContext` holding only its declared
deps, and the raw records only when it ``consumes_source``: whatever a
stage can read is exactly what its fingerprint chains on, so a cached
artifact cannot go stale behind an undeclared read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..errors import ArtifactError, PipelineError
from ..obs import current_tracer, metrics_registry
from .artifacts import Artifact, ArtifactStore
from .fingerprint import combine
from .stage import Stage, StageContext

__all__ = ["PipelineRunner", "PipelineResult", "StageReport", "StagePlan"]

#: Data fingerprint used for in-memory (uncached) runs.
LIVE = "live"


@dataclass(frozen=True)
class StageReport:
    """Provenance of one executed (or cache-served) stage."""

    name: str
    fingerprint: str
    cache_hit: bool
    seconds: float
    deps: tuple[str, ...]


@dataclass(frozen=True)
class StagePlan:
    """One row of a dry-run plan: would this stage hit the cache?"""

    name: str
    fingerprint: str
    cached: bool
    deps: tuple[str, ...]


@dataclass
class PipelineResult:
    """All artifacts plus the per-stage execution reports."""

    artifacts: dict[str, Artifact]
    reports: list[StageReport] = field(default_factory=list)

    def value(self, stage: str) -> object:
        """The computed value of one stage."""
        return self.artifacts[stage].value

    @property
    def cache_hits(self) -> list[str]:
        """Names of stages served from the artifact store."""
        return [r.name for r in self.reports if r.cache_hit]

    @property
    def cache_misses(self) -> list[str]:
        """Names of stages that had to run."""
        return [r.name for r in self.reports if not r.cache_hit]

    @property
    def total_seconds(self) -> float:
        """Wall-clock spent across all stages (load or run)."""
        return sum(r.seconds for r in self.reports)


class PipelineRunner:
    """Run a validated stage DAG against an optional artifact store."""

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise PipelineError(f"duplicate stage names in {names}")
        self.stages = {s.name: s for s in stages}
        self.store = store
        self.order = self._topological_order()

    # ------------------------------------------------------------------
    def _topological_order(self) -> list[str]:
        """Kahn's algorithm; rejects unknown deps and cycles."""
        for stage in self.stages.values():
            for dep in stage.deps:
                if dep not in self.stages:
                    raise PipelineError(
                        f"stage {stage.name!r} depends on unknown stage {dep!r}"
                    )
        remaining = {
            name: set(stage.deps) for name, stage in self.stages.items()
        }
        order: list[str] = []
        while remaining:
            ready = sorted(n for n, deps in remaining.items() if not deps)
            if not ready:
                raise PipelineError(
                    f"stage dependency cycle among {sorted(remaining)}"
                )
            for name in ready:
                order.append(name)
                del remaining[name]
            for deps in remaining.values():
                deps.difference_update(ready)
        return order

    # ------------------------------------------------------------------
    def fingerprints(self, data_fingerprint: str = LIVE) -> dict[str, str]:
        """Every stage's cache key, chained through dependency edges."""
        fps: dict[str, str] = {}
        for name in self.order:
            stage = self.stages[name]
            fps[name] = combine(
                name,
                stage.config_payload(),
                {dep: fps[dep] for dep in stage.deps},
                data_fingerprint if stage.consumes_source else None,
            )
        return fps

    def plan(self, data_fingerprint: str = LIVE) -> list[StagePlan]:
        """Dry-run view: which stages would be served from cache."""
        fps = self.fingerprints(data_fingerprint)
        return [
            StagePlan(
                name=name,
                fingerprint=fps[name],
                cached=bool(self.store and self.store.has(name, fps[name])),
                deps=self.stages[name].deps,
            )
            for name in self.order
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        ctx: StageContext,
        *,
        data_fingerprint: str = LIVE,
    ) -> PipelineResult:
        """Execute the DAG, reusing cached artifacts where possible."""
        fps = self.fingerprints(data_fingerprint)
        artifacts: dict[str, Artifact] = {}
        reports: list[StageReport] = []
        tracer = current_tracer()
        registry = metrics_registry()
        with tracer.span("pipeline.run", stages=len(self.order)):
            for name in self.order:
                stage = self.stages[name]
                fp = fps[name]
                stage_ctx = replace(
                    ctx,
                    inputs={dep: artifacts[dep].value for dep in stage.deps},
                    records=ctx.records if stage.consumes_source else (),
                )
                with tracer.span(f"stage:{name}") as span:
                    start = time.perf_counter()
                    value, hit, path = self._materialize(stage, fp, stage_ctx)
                    seconds = time.perf_counter() - start
                    span.set(cache_hit=hit)
                registry.counter(
                    "pipeline.cache_hits" if hit else "pipeline.cache_misses"
                ).inc()
                registry.histogram("pipeline.stage_ms").observe(seconds * 1e3)
                artifacts[name] = Artifact(
                    stage=name,
                    fingerprint=fp,
                    value=value,
                    cache_hit=hit,
                    seconds=seconds,
                    path=path,
                )
                reports.append(
                    StageReport(
                        name=name,
                        fingerprint=fp,
                        cache_hit=hit,
                        seconds=seconds,
                        deps=stage.deps,
                    )
                )
        return PipelineResult(artifacts=artifacts, reports=reports)

    def _materialize(self, stage: Stage, fp: str, ctx: StageContext):
        """Load the stage from cache or run + persist it."""
        if self.store is not None and self.store.has(stage.name, fp):
            try:
                value = self.store.load(
                    stage.name, fp, lambda d: stage.load(d, ctx)
                )
                return value, True, self.store.directory(stage.name, fp)
            except ArtifactError:
                pass  # corrupt artifact: fall through to recompute
        value = stage.run(ctx)
        path = None
        if self.store is not None:
            path = self.store.save(
                stage.name, fp, lambda d: stage.save(value, d)
            )
        return value, False, path
