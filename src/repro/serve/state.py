"""Service checkpointing: pack/restore the full mutable serving state.

Graceful shutdown snapshots everything a restarted
:class:`~repro.serve.service.PredictionService` needs to resume the
stream **bit-identically**: every shard monitor's
:meth:`~repro.core.monitor.StreamingMonitor.state_dict` (buffers in LRU
order, alert latches, counters, ingest stats and dead letters), the
service-level ingest dedup window, and the retained alert ring.  The snapshot is pure JSON
and rides the :class:`~repro.resilience.CheckpointManager` ``meta``
channel (``arrays={}``), inheriting its atomic write-rename-manifest
protocol and retention/GC.

What is deliberately *not* captured: still-queued (uncommitted) items —
the checkpoint is taken after the drain, and an undrainable queue's
items are shed, not silently persisted — and the model weights, which
have their own training checkpoints.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ServeError
from ..resilience.checkpoint import CheckpointManager

__all__ = ["service_state", "restore_service_state", "save_service_checkpoint"]

#: Bump when the layout of the service snapshot changes incompatibly.
STATE_VERSION = 2


def service_state(service) -> dict:
    """The service's complete mutable state as a JSON-serializable dict."""
    return {
        "version": STATE_VERSION,
        "num_shards": service.config.num_shards,
        "alert_seq": service._alert_seq,
        "alerts": list(service._alerts),
        "dedup": service.dedup.state_dict(),
        "shards": [
            {
                "monitor": shard.monitor.state_dict(),
                "items_taken": shard.items_taken,
                "lines_processed": shard.lines_processed,
                "ingest_errors": shard.ingest_errors,
            }
            for shard in service._shards
        ],
    }


def restore_service_state(service, state: dict) -> None:
    """Load a :func:`service_state` snapshot into *service* in place.

    Raises :class:`~repro.errors.ServeError` on a version or topology
    mismatch — resuming a 4-shard checkpoint into an 8-shard service
    would silently re-route every node and must be rejected.
    """
    version = state.get("version")
    if version != STATE_VERSION:
        raise ServeError(
            f"unsupported service state version {version!r} "
            f"(expected {STATE_VERSION})"
        )
    num_shards = state.get("num_shards")
    if num_shards != service.config.num_shards:
        raise ServeError(
            f"checkpoint has {num_shards} shards but the service is "
            f"configured for {service.config.num_shards}; shard counts "
            "must match for routing to stay stable"
        )
    service._alert_seq = int(state["alert_seq"])
    service._alerts.clear()
    service._alerts.extend(state["alerts"])
    service.dedup.load_state_dict(state["dedup"])
    for shard, shard_state in zip(service._shards, state["shards"]):
        shard.monitor.load_state_dict(shard_state["monitor"])
        shard.items_taken = int(shard_state["items_taken"])
        shard.lines_processed = int(shard_state["lines_processed"])
        shard.ingest_errors = int(shard_state["ingest_errors"])


def save_service_checkpoint(
    manager: CheckpointManager, service
) -> Path:
    """Write the service snapshot through *manager* (atomic, retained).

    The checkpoint step is the total committed-item count across
    shards, so successive shutdowns produce monotonically increasing
    steps and retention keeps the newest snapshots.
    """
    step = sum(shard.items_taken for shard in service._shards)
    return manager.save(step, arrays={}, meta=service_state(service))
