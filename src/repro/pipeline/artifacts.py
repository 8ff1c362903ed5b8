"""Typed, content-addressed, on-disk artifact store.

One artifact directory per ``(stage, fingerprint)`` pair::

    <root>/<stage>/<fingerprint[:16]>/
        ...stage payload files (npz / json)...
        artifact.json        <- written LAST, atomically

``artifact.json`` records the *full* fingerprint and is written through
:func:`~repro.resilience.checkpoint.atomic_write_bytes` after every
payload file has landed, so a crash mid-save leaves a directory without
a manifest — invisible to :meth:`ArtifactStore.has` and simply
overwritten by the next save.  Loads that fail (corrupt payloads) raise
:class:`~repro.errors.ArtifactError`; the runner treats that as a cache
miss and recomputes.

The manifest holds nothing but the stage name and fingerprint (plus any
caller ``meta``), so the same cold run writes a byte-identical store
under any ``PYTHONHASHSEED`` (``tests/test_pipeline_hashseed.py``).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar

from ..errors import ArtifactError
from ..resilience.checkpoint import atomic_write_bytes

__all__ = ["Artifact", "ArtifactStore"]

_MANIFEST = "artifact.json"
_DIR_CHARS = 16  # directory name length; full digest lives in the manifest

T = TypeVar("T")


@dataclass
class Artifact:
    """One materialized stage output plus its provenance."""

    stage: str
    fingerprint: str
    value: object
    cache_hit: bool = False
    seconds: float = 0.0
    path: Optional[Path] = field(default=None, compare=False)


class ArtifactStore:
    """Content-addressed cache of stage outputs under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def directory(self, stage: str, fingerprint: str) -> Path:
        """Where the artifact for ``(stage, fingerprint)`` lives."""
        if not stage or "/" in stage:
            raise ArtifactError(f"invalid stage name {stage!r}")
        return self.root / stage / fingerprint[:_DIR_CHARS]

    def _manifest(self, stage: str, fingerprint: str) -> Optional[dict]:
        path = self.directory(stage, fingerprint) / _MANIFEST
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def has(self, stage: str, fingerprint: str) -> bool:
        """Whether a complete artifact exists for this exact fingerprint."""
        manifest = self._manifest(stage, fingerprint)
        return manifest is not None and manifest.get("fingerprint") == fingerprint

    # ------------------------------------------------------------------
    def save(
        self,
        stage: str,
        fingerprint: str,
        writer: Callable[[Path], None],
        *,
        meta: dict | None = None,
    ) -> Path:
        """Materialize one artifact; returns its directory.

        *writer* receives the (created, emptied) artifact directory and
        writes the stage payload files into it; the manifest is written
        last, atomically, making the artifact visible.
        """
        directory = self.directory(stage, fingerprint)
        if directory.exists():
            # Torn previous save or short-prefix collision: start clean.
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        try:
            writer(directory)
        # deshlint: allow[R4] writer runs arbitrary stage codecs; any
        # failure must become a typed ArtifactError after cleanup
        except Exception as exc:
            shutil.rmtree(directory, ignore_errors=True)
            raise ArtifactError(
                f"failed to write artifact {stage}/{fingerprint[:12]}: {exc}"
            ) from exc
        manifest = {
            "stage": stage,
            "fingerprint": fingerprint,
            **(meta or {}),
        }
        atomic_write_bytes(
            directory / _MANIFEST, json.dumps(manifest, indent=1).encode()
        )
        return directory

    def load(
        self,
        stage: str,
        fingerprint: str,
        reader: Callable[[Path], T],
    ) -> T:
        """Load one artifact through *reader*; raises on absence/corruption."""
        if not self.has(stage, fingerprint):
            raise ArtifactError(
                f"no artifact for {stage}/{fingerprint[:12]} under {self.root}"
            )
        directory = self.directory(stage, fingerprint)
        try:
            return reader(directory)
        except ArtifactError:
            raise
        # deshlint: allow[R4] reader runs arbitrary stage codecs over
        # possibly-corrupt payloads; wrap everything as ArtifactError so
        # the runner treats it as a cache miss
        except Exception as exc:
            raise ArtifactError(
                f"failed to read artifact {stage}/{fingerprint[:12]}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[dict]:
        """All complete artifact manifests in the store."""
        if not self.root.exists():
            return
        for stage_dir in sorted(self.root.iterdir()):
            if not stage_dir.is_dir():
                continue
            for art_dir in sorted(stage_dir.iterdir()):
                path = art_dir / _MANIFEST
                if not path.exists():
                    continue
                try:
                    manifest = json.loads(path.read_text())
                except (OSError, ValueError):
                    continue
                manifest["path"] = str(art_dir)
                yield manifest
