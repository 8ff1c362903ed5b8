"""deshserve: the fault-tolerant long-running prediction service.

The serving layer turns the paper's trained offline model into an
operational system-health endpoint: raw syslog lines stream in, per-node
failure warnings with lead times stream out, and the whole thing is
built to *stay up* — supervised shard workers whose crashed items
replay exactly, bounded queues with backpressure and explicit
load-shedding, deadline-bounded prediction calls, and graceful
shutdown into an atomic checkpoint that resumes bit-identically.  Everything is stdlib ``asyncio``; no new dependencies.

Layout:

* :mod:`~repro.serve.router` — stable BLAKE2b node → shard placement;
* :mod:`~repro.serve.queues` — bounded peek/commit queues + ingest dedup;
* :mod:`~repro.serve.supervisor` — worker restart with backoff + jitter;
* :mod:`~repro.serve.service` — the sharded :class:`PredictionService`;
* :mod:`~repro.serve.state` — checkpoint pack/restore of serving state;
* :mod:`~repro.serve.server` — the hand-rolled asyncio HTTP front-end;
* :mod:`~repro.serve.soak` — the chaos soak harness and its SLOs.
"""

from .queues import HashDeduper, ShardQueue
from .router import ShardRouter
from .server import HttpServer, run_server
from .service import IngestResult, PredictionService, ServeConfig
from .soak import (
    AVAILABILITY_SLO,
    RECOVERY_SLO_SECONDS,
    SoakReport,
    run_soak,
)
from .supervisor import RestartPolicy, Supervisor, WorkerState

__all__ = [
    "AVAILABILITY_SLO",
    "RECOVERY_SLO_SECONDS",
    "HashDeduper",
    "HttpServer",
    "IngestResult",
    "PredictionService",
    "RestartPolicy",
    "ServeConfig",
    "ShardQueue",
    "ShardRouter",
    "SoakReport",
    "Supervisor",
    "WorkerState",
    "run_server",
    "run_soak",
]
