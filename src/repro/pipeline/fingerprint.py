"""Content fingerprints for pipeline stages and artifacts.

Every stage's cache key is a SHA-256 digest over (a) the stage's own
configuration payload, (b) the fingerprints of its upstream stages, and
(c) — for source stages — a fingerprint of the input data.  Because the
key is content-addressed, invalidation needs no bookkeeping: changing
the Phase-2 learning rate changes the ``phase2`` fingerprint (and, via
dependency chaining, ``phase3``'s) while ``parse``/``phase1``/``chains``
keys are untouched and keep hitting the cache.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping

from ..simlog.record import LogRecord

__all__ = [
    "canonical_json",
    "fingerprint_payload",
    "fingerprint_bytes",
    "fingerprint_records",
    "combine",
]


def canonical_json(payload: object) -> str:
    """Stable JSON text: sorted keys, no whitespace, ASCII only."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def fingerprint_bytes(data: bytes) -> str:
    """SHA-256 hex digest of a byte string."""
    return hashlib.sha256(data).hexdigest()


def fingerprint_payload(payload: object) -> str:
    """SHA-256 over the canonical JSON encoding of *payload*."""
    return fingerprint_bytes(canonical_json(payload).encode())


def fingerprint_records(records: Iterable[LogRecord]) -> str:
    """Order-sensitive SHA-256 over a stream of log records.

    Hashes the fields that influence parsing (timestamp, node, facility,
    message); two record streams with the same fingerprint produce the
    same parse artifact.
    """
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.timestamp!r}|{r.node}|{r.facility}|{r.message}\n".encode()
        )
    return h.hexdigest()


def combine(stage: str, config: object, deps: Mapping[str, str], data: str | None) -> str:
    """The stage cache key: config + upstream fingerprints (+ source data)."""
    return fingerprint_payload(
        {
            "stage": stage,
            "config": config,
            "deps": dict(sorted(deps.items())),
            "data": data,
        }
    )
