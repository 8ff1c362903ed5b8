"""Atomic, checksummed, epoch-granular training checkpoints.

Multi-hour LSTM training runs die mid-epoch — node reboots, OOM kills,
preemption.  :class:`CheckpointManager` makes ``fit`` restartable with
*bit-identical* results:

* **atomic**: the payload is written to a temp file, ``fsync``\\ ed and
  ``os.replace``\\ d into place, then the manifest is updated the same
  way — a crash at any instant leaves either the old or the new
  checkpoint, never a torn file;
* **checksummed**: each payload's SHA-256 is recorded in the manifest
  and verified on load; silent disk corruption is detected and the
  loader falls back to the previous intact checkpoint;
* **complete**: a checkpoint captures the model parameters, the full
  optimizer slot state (momentum / RMS accumulators / Adam moments),
  the loss history *and* the exact NumPy bit-generator state, so a
  resumed run replays the remaining epochs with the same batch
  shuffles and lands on the same weights as an uninterrupted run.

The format is a single ``.npz`` per checkpoint step plus a JSON
manifest; :func:`pack_fit_state` / :func:`restore_fit_state` define the
array layout of the models' fit-loop checkpoints.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from ..errors import CheckpointError, ConfigError
from ..obs import current_tracer, metrics_registry

__all__ = [
    "CheckpointManager",
    "atomic_write_bytes",
    "pack_fit_state",
    "restore_fit_state",
]

_MANIFEST = "MANIFEST.json"
_PARAM_PREFIX = "param::"
_OPT_PREFIX = "opt::"


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write *payload* to *path* via tmp + fsync + rename (crash-safe).

    Shared durability primitive: checkpoints and the pipeline artifact
    store both write through it so a crash at any instant leaves either
    the old file or the new one, never a torn write.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    # Make the rename itself durable.
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


#: Backwards-compatible alias (pre-pipeline internal name).
_atomic_write_bytes = atomic_write_bytes


class CheckpointManager:
    """Save/load checksummed training checkpoints in one directory.

    Parameters
    ----------
    directory:
        Where checkpoints live; created on first save.
    keep:
        Number of most-recent checkpoints retained (older payloads are
        pruned after each save).  Keeping more than one is what makes
        checksum-failure fallback possible.
    """

    def __init__(self, directory: str | Path, *, keep: int = 2) -> None:
        if keep < 1:
            raise ConfigError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep

    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    def _read_manifest(self) -> list[dict]:
        path = self._manifest_path()
        if not path.exists():
            return []
        try:
            data = json.loads(path.read_text())
            entries = data["checkpoints"]
        except (OSError, ValueError, KeyError) as exc:
            raise CheckpointError(f"unreadable checkpoint manifest {path}") from exc
        return entries

    def _write_manifest(self, entries: list[dict]) -> None:
        payload = json.dumps({"checkpoints": entries}, indent=1).encode()
        _atomic_write_bytes(self._manifest_path(), payload)

    # ------------------------------------------------------------------
    def save(
        self,
        step: int,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, object],
    ) -> Path:
        """Persist one checkpoint; returns the payload path.

        ``step`` is the number of completed epochs; ``arrays`` holds
        every tensor to restore and ``meta`` any JSON-serializable
        scalars (epoch counters, rng state, histories).
        """
        if step < 0:
            raise CheckpointError(f"step must be >= 0, got {step}")
        with current_tracer().span(
            "checkpoint.save", step=step, arrays=len(arrays)
        ):
            return self._save(step, arrays, meta)

    def _save(
        self,
        step: int,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, object],
    ) -> Path:
        """The body of :meth:`save` (wrapped in its tracing span)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        buf = io.BytesIO()
        np.savez(buf, __meta__=json.dumps(dict(meta)), **dict(arrays))
        payload = buf.getvalue()
        digest = hashlib.sha256(payload).hexdigest()
        name = f"ckpt-{step:08d}.npz"
        _atomic_write_bytes(self.directory / name, payload)
        entries = [e for e in self._read_manifest() if e["step"] != step]
        entries.append({"step": step, "file": name, "sha256": digest})
        entries.sort(key=lambda e: e["step"])
        pruned, entries = entries[: -self.keep], entries[-self.keep :]
        self._write_manifest(entries)
        for entry in pruned:
            try:
                (self.directory / entry["file"]).unlink(missing_ok=True)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self.gc()
        metrics_registry().counter("checkpoint.saves").inc()
        return self.directory / name

    def gc(self) -> list[str]:
        """Prune files the manifest does not reference; returns their names.

        A long-running service checkpoints indefinitely; crashes between
        the payload write and the manifest update (or mid-``tmp`` write)
        leave orphaned ``ckpt-*.npz`` payloads and stale ``*.tmp`` files
        behind.  Retention (``keep``) only unlinks manifest-listed
        payloads, so without GC the directory grows without bound.  GC
        runs after every save and is atomic in the only sense that
        matters: it removes nothing the manifest references, so a crash
        mid-GC leaves every live checkpoint loadable.
        """
        if not self.directory.is_dir():
            return []
        referenced = {str(e["file"]) for e in self._read_manifest()}
        removed: list[str] = []
        for path in sorted(self.directory.iterdir()):
            name = path.name
            if name == _MANIFEST or name in referenced:
                continue
            is_orphan_payload = name.startswith("ckpt-") and name.endswith(
                ".npz"
            )
            is_stale_tmp = name.endswith(".tmp")
            if not (is_orphan_payload or is_stale_tmp):
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                continue
            removed.append(name)
        if removed:
            metrics_registry().counter("checkpoint.gc_removed").inc(
                len(removed)
            )
        return removed

    # ------------------------------------------------------------------
    def steps(self) -> list[int]:
        """Steps recorded in the manifest, oldest first."""
        return [int(e["step"]) for e in self._read_manifest()]

    def load_latest(
        self,
    ) -> Optional[tuple[int, dict[str, np.ndarray], dict]]:
        """Load the newest intact checkpoint.

        Returns ``(step, arrays, meta)``, or ``None`` when no checkpoint
        exists yet.  A checkpoint whose payload is missing or fails its
        checksum is skipped in favor of the previous one; if every
        recorded checkpoint is corrupt, :class:`CheckpointError` is
        raised (resuming silently from nothing would discard work).
        """
        entries = self._read_manifest()
        if not entries:
            return None
        failures: list[str] = []
        with current_tracer().span("checkpoint.load") as span:
            for entry in reversed(entries):
                try:
                    loaded = self._load_entry(entry)
                except CheckpointError as exc:
                    failures.append(str(exc))
                    continue
                span.set(step=loaded[0], skipped=len(failures))
                metrics_registry().counter("checkpoint.restores").inc()
                return loaded
        raise CheckpointError(
            "all checkpoints failed verification: " + "; ".join(failures)
        )

    def _load_entry(self, entry: dict) -> tuple[int, dict[str, np.ndarray], dict]:
        path = self.directory / entry["file"]
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"missing checkpoint payload {path}") from exc
        digest = hashlib.sha256(payload).hexdigest()
        if digest != entry["sha256"]:
            raise CheckpointError(
                f"checksum mismatch for {path}: "
                f"expected {entry['sha256'][:12]}.., got {digest[:12]}.."
            )
        try:
            data = np.load(io.BytesIO(payload), allow_pickle=False)
            meta = json.loads(str(data["__meta__"]))
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        except (OSError, KeyError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint payload {path}") from exc
        return int(entry["step"]), arrays, meta


# ----------------------------------------------------------------------
# fit-state packing for the nn.model fit loop
# ----------------------------------------------------------------------
def pack_fit_state(
    params: Mapping[str, np.ndarray],
    optimizer,
    rng: np.random.Generator,
    *,
    epoch: int,
    extra_meta: Mapping[str, object] | None = None,
) -> tuple[dict[str, np.ndarray], dict]:
    """Bundle model params + optimizer slots + rng state for saving.

    Returns the ``(arrays, meta)`` pair expected by
    :meth:`CheckpointManager.save`.
    """
    arrays = {_PARAM_PREFIX + k: v for k, v in params.items()}
    opt_arrays, opt_meta = optimizer.state_dict()
    arrays.update({_OPT_PREFIX + k: v for k, v in opt_arrays.items()})
    meta: dict[str, object] = {
        "epoch": int(epoch),
        "optimizer": opt_meta,
        "rng_state": rng.bit_generator.state,
    }
    if extra_meta:
        meta.update(extra_meta)
    return arrays, meta


def restore_fit_state(
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, object],
    params: Mapping[str, np.ndarray],
    optimizer,
    rng: np.random.Generator,
) -> int:
    """Inverse of :func:`pack_fit_state`; returns the completed epoch.

    Model parameters are restored in place (the arrays in *params* are
    live views into the layers), the optimizer's slot state and
    hyper-state are reloaded, and the generator is rewound to the exact
    saved bit-generator state so subsequent batch shuffles replay
    identically.
    """
    state = meta.get("rng_state")
    if state is None:
        raise CheckpointError("checkpoint missing the generator state")
    for key, arr in params.items():
        stored = arrays.get(_PARAM_PREFIX + key)
        if stored is None:
            raise CheckpointError(f"checkpoint missing parameter {key!r}")
        if stored.shape != arr.shape:
            raise CheckpointError(
                f"checkpoint shape mismatch for {key!r}: "
                f"{stored.shape} vs {arr.shape}"
            )
        arr[...] = stored
    opt_arrays = {
        k[len(_OPT_PREFIX) :]: v
        for k, v in arrays.items()
        if k.startswith(_OPT_PREFIX)
    }
    optimizer.load_state_dict(opt_arrays, dict(meta.get("optimizer", {})))
    rng.bit_generator.state = state
    return int(meta["epoch"])
