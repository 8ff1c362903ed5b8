"""Chaos soak harness: drive the service under injected service faults.

:func:`run_soak` is the end-to-end proof demanded of the serving layer:
feed a real rendered log stream through a live
:class:`~repro.serve.service.PredictionService` while a
:class:`~repro.resilience.ChaosInjector` profile injects *service*
faults — worker crashes mid-feed, slow-consumer stalls, ingest burst
storms — and assert the robustness contract:

* **no unhandled exceptions** anywhere (a loop-level exception handler
  records anything that escapes; the soak fails if it saw one);
* **every crashed worker was restarted** by the supervisor, and no
  worker was given up on;
* load was **shed, not errored**: every send either lands or comes back
  as an explicit shed the driver retries — the stream is eventually
  processed in full;
* for profiles without line faults (``service-crash``), the post-drain
  per-node monitor state and alert stream are **bit-identical** to a
  fault-free run of the same stream — crashes at item boundaries plus
  peek/commit replay lose and duplicate nothing;
* the maximum crash-to-recovery time stays under
  :data:`RECOVERY_SLO_SECONDS`.

Determinism: each shard worker's fault decisions come from its own RNG
stream (``derive_seed(seed, "soak.shard<i>")``) consumed only by that
worker's hook, and the driver's burst decisions from a separate stream
— so the injected fault sequence is reproducible regardless of how the
event loop interleaves tasks.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import InjectedFaultError, ServeError
from ..resilience.chaos import FAULT_PROFILES, ChaosInjector, FaultProfile
from ..rng import derive_seed
from .service import PredictionService, ServeConfig

__all__ = [
    "AVAILABILITY_SLO",
    "RECOVERY_SLO_SECONDS",
    "SoakReport",
    "run_soak",
]

#: Fraction of non-duplicate lines that must be processed end to end
#: (after driver retries of shed batches).  Shedding is allowed;
#: *losing* data is not.
AVAILABILITY_SLO = 1.0

#: Documented ceiling on worker crash-to-recovery time (seconds):
#: supervisor backoff (base 0.02 s, doubling, jittered) plus replay of
#: the in-flight item.  The soak and the service bench assert the
#: maximum observed recovery stays under this.
RECOVERY_SLO_SECONDS = 2.0

#: Driver retries of one batch before declaring the stream stuck.
_MAX_RETRIES_PER_BATCH = 200


@dataclass
class SoakReport:
    """Everything a soak run measured, JSON-serializable via as_dict."""

    profile: str
    lines_sent: int = 0
    accepted: int = 0
    deduped: int = 0
    shed_events: int = 0
    retries: int = 0
    lost: int = 0
    crashes_injected: int = 0
    stalls_injected: int = 0
    bursts_injected: int = 0
    worker_restarts: int = 0
    workers_given_up: int = 0
    recovery_times: list = field(default_factory=list)
    ingest_latencies: list = field(default_factory=list)
    predict_latencies: list = field(default_factory=list)
    alerts: int = 0
    unhandled_errors: list = field(default_factory=list)
    bit_identical: Optional[bool] = None
    elapsed_seconds: float = 0.0

    @property
    def max_recovery_seconds(self) -> float:
        """The slowest observed crash-to-recovery interval (0 if none)."""
        return max(self.recovery_times, default=0.0)

    @property
    def availability(self) -> float:
        """Fraction of routable (non-duplicate) lines fully processed."""
        routable = self.lines_sent - self.deduped
        if routable <= 0:
            return 1.0
        return (routable - self.lost) / routable

    def as_dict(self) -> dict:
        """The report as a plain dict (for JSON output and the bench)."""
        return {
            "profile": self.profile,
            "lines_sent": self.lines_sent,
            "accepted": self.accepted,
            "deduped": self.deduped,
            "shed_events": self.shed_events,
            "retries": self.retries,
            "lost": self.lost,
            "availability": self.availability,
            "crashes_injected": self.crashes_injected,
            "stalls_injected": self.stalls_injected,
            "bursts_injected": self.bursts_injected,
            "worker_restarts": self.worker_restarts,
            "workers_given_up": self.workers_given_up,
            "recovery_times": list(self.recovery_times),
            "max_recovery_seconds": self.max_recovery_seconds,
            "alerts": self.alerts,
            "unhandled_errors": list(self.unhandled_errors),
            "bit_identical": self.bit_identical,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _soak_config(config: Optional[ServeConfig], total_lines: int) -> ServeConfig:
    """The soak's service config: bit-identity needs a full-stream dedup
    window (no eviction → dedup decisions independent of retry order)."""
    if config is not None:
        return config
    return ServeConfig(
        num_shards=2,
        queue_depth=64,
        backpressure_wait=0.05,
        dedup_window=max(4096, total_lines + 1),
        checkpoint_dir=None,
    )


def _fingerprint(service: PredictionService) -> str:
    """Canonical JSON of the post-drain prediction-relevant state.

    Alert *contents* are compared order-independently: the global
    sequence interleaving across concurrently-draining shards is
    scheduler timing, not prediction output, and differs even between
    two fault-free runs.  Per-shard monitor state (buffers, counters,
    alert latches) is compared exactly.
    """
    alerts = sorted(
        (
            {k: v for k, v in alert.items() if k != "seq"}
            for alert in service.alerts_since(0)
        ),
        key=lambda alert: (alert["node"], alert["decision_time"]),
    )
    state = {
        "shards": [
            shard.monitor.state_dict() for shard in service._shards
        ],
        "alerts": alerts,
    }
    return json.dumps(state, sort_keys=True)


async def _drive(
    service: PredictionService,
    batches: list[list[str]],
    driver_chaos: ChaosInjector,
    report: SoakReport,
    *,
    predict_every: int = 0,
) -> None:
    """Send every batch (merging bursts, retrying sheds) until accepted."""
    loop = asyncio.get_running_loop()
    pending: list[list[str]] = list(batches)
    batch_index = 0
    while pending:
        faults = driver_chaos.service_faults()
        merge = min(max(1, faults.burst_factor), len(pending))
        batch = [line for part in pending[:merge] for line in part]
        del pending[:merge]
        to_send = batch
        retries = 0
        while to_send:
            start = loop.time()
            result = await service.ingest_lines(to_send)
            report.ingest_latencies.append(loop.time() - start)
            report.accepted += result.accepted
            report.deduped += result.deduped
            if not result.shed:
                break
            report.shed_events += 1
            retries += 1
            if retries > _MAX_RETRIES_PER_BATCH:
                report.lost += result.shed
                break
            report.retries += 1
            to_send = result.shed_lines
            await asyncio.sleep(
                min(result.retry_after or 0.01, 0.02)
            )
        if predict_every and batch and batch_index % predict_every == 0:
            parts = batch[0].split(None, 2)
            if len(parts) >= 2:
                start = loop.time()
                await service.predict(parts[1])
                report.predict_latencies.append(loop.time() - start)
        batch_index += 1


async def _run_one(
    model,
    lines: Sequence[str],
    profile: FaultProfile,
    *,
    seed: int,
    config: ServeConfig,
    batch_size: int,
    report: SoakReport,
    inject_service_faults: bool,
    predict_every: int = 0,
) -> str:
    """One full service lifecycle over *lines*; returns the fingerprint."""
    loop = asyncio.get_running_loop()
    loop.set_exception_handler(
        lambda _loop, context: report.unhandled_errors.append(
            str(context.get("message") or context.get("exception"))
        )
    )
    shard_chaos = [
        ChaosInjector(profile, seed=derive_seed(seed, f"soak.shard{index}"))
        for index in range(config.num_shards)
    ]

    def fault_hook(shard_index: int, _item_index: int) -> Optional[float]:
        """Draw and apply this work item's service-fault decisions."""
        if not inject_service_faults:
            return None
        faults = shard_chaos[shard_index].service_faults()
        if faults.crash:
            raise InjectedFaultError(
                f"injected worker crash on shard {shard_index}"
            )
        return faults.stall_seconds or None

    service = PredictionService(model, config, fault_hook=fault_hook)
    await service.start(restore=False)
    start = loop.time()
    batches = [
        list(lines[i : i + batch_size])
        for i in range(0, len(lines), batch_size)
    ]
    driver_chaos = ChaosInjector(
        profile if inject_service_faults else FaultProfile(),
        seed=derive_seed(seed, "soak.driver"),
    )
    await _drive(
        service, batches, driver_chaos, report, predict_every=predict_every
    )
    await service.stop(checkpoint=False)
    report.elapsed_seconds += loop.time() - start
    if inject_service_faults:
        report.lines_sent = sum(len(b) for b in batches)
        for injector in shard_chaos:
            report.crashes_injected += injector.stats.crashes_injected
            report.stalls_injected += injector.stats.stalls_injected
        report.bursts_injected = driver_chaos.stats.bursts_injected
        report.worker_restarts = service.supervisor.total_restarts
        report.workers_given_up = sum(
            1 for state in service.supervisor.states if state.failed
        )
        report.recovery_times = service.supervisor.recovery_times()
        report.alerts = service._alert_seq
    return _fingerprint(service)


def run_soak(
    model,
    lines: Sequence[str],
    profile: "FaultProfile | str" = "service-crash",
    *,
    seed: int = 0,
    config: Optional[ServeConfig] = None,
    batch_size: int = 64,
    predict_every: int = 0,
) -> SoakReport:
    """Soak the service over *lines* under *profile*; returns the report.

    For profiles whose faults are purely service-shaped (no line
    damage), a fault-free reference run is executed first and
    ``report.bit_identical`` records whether the faulted run's
    post-drain monitor state and alert stream match it exactly.
    ``predict_every`` > 0 additionally issues one deadline-bounded
    prediction request every that many batches (request-latency data
    for the bench).

    Synchronous wrapper — owns its own event loop, so call it from
    ordinary code and tests (not from inside a running loop).
    """
    if isinstance(profile, str):
        if profile not in FAULT_PROFILES:
            raise ServeError(
                f"unknown fault profile {profile!r}; "
                f"known: {sorted(FAULT_PROFILES)}"
            )
        profile_name, profile = profile, FAULT_PROFILES[profile]
    else:
        profile_name = "custom"
    report = SoakReport(profile=profile_name)
    if profile.has_line_faults():
        line_chaos = ChaosInjector(
            profile, seed=derive_seed(seed, "soak.lines")
        )
        faulted_lines = list(line_chaos.inject(lines))
        reference_fp = None
    else:
        faulted_lines = list(lines)
        reference = SoakReport(profile=profile_name)
        reference_fp = asyncio.run(
            _run_one(
                model,
                faulted_lines,
                FaultProfile(),
                seed=seed,
                config=_soak_config(config, len(faulted_lines)),
                batch_size=batch_size,
                report=reference,
                inject_service_faults=False,
            )
        )
        report.unhandled_errors.extend(reference.unhandled_errors)
    faulted_fp = asyncio.run(
        _run_one(
            model,
            faulted_lines,
            profile,
            seed=seed,
            config=_soak_config(config, len(faulted_lines)),
            batch_size=batch_size,
            report=report,
            inject_service_faults=True,
            predict_every=predict_every,
        )
    )
    if reference_fp is not None:
        report.bit_identical = faulted_fp == reference_fp
    return report
