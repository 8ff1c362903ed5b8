"""The synthetic log generator: compose all traffic sources with ground truth.

A generated log interleaves, per node and machine-wide:

* benign background noise (weighted safe templates, Poisson per node),
* ambient one-off anomalies (Unknown phrases *outside* any chain — the
  reason Table 8's contribution percentages are below 100%),
* slurm-like job placement/completion records,
* injected failure chains (class-stratified, Table-7 lead times) whose
  terminal message marks an anomalous node failure,
* near-miss chains — the same anomalous prefixes that recover instead of
  failing (Table 9),
* maintenance windows — mass service shutdowns that must *not* count as
  anomalous failures (Section 2, "Node Failures"),
* reboot traffic after every downed node.

The exact injected events are returned as :class:`GroundTruth` so the
evaluation can score predictions without any hand labeling.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..errors import LogGenerationError
from ..topology.cluster import ClusterTopology
from ..topology.cray import CrayNodeId
from .faults import ChainTemplate, FailureClass, FaultModel, default_fault_model
from .record import LogRecord
from .templates import TemplateCatalog, default_catalog
from .workload import WorkloadModel

__all__ = [
    "GeneratorConfig",
    "FailureEvent",
    "NearMissEvent",
    "MaintenanceEvent",
    "GroundTruth",
    "GeneratedLog",
    "LogGenerator",
]


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic log generator.

    Attributes
    ----------
    horizon:
        Length of the simulated window in seconds.
    background_rate:
        Expected benign messages per node per second.
    ambient_anomaly_rate:
        Expected *chain-free* Unknown phrases per node per second.
    failure_count:
        Number of anomalous node failures to inject.
    near_miss_ratio:
        Near-miss chains per failure (e.g. 0.5 -> half as many).
    maintenance_count:
        Number of mass-shutdown maintenance windows.
    maintenance_fraction:
        Fraction of the machine taken down per maintenance window.
    downtime:
        Seconds a downed node stays silent before its reboot traffic.
    edge_margin:
        Keep injected terminals this many seconds away from the horizon
        edges so chains are never truncated.
    cascade_prob:
        Probability that an injected failure triggers a *correlated*
        follow-up failure on a node in the same cabinet within a few
        minutes — the cabinet-level spatial correlation Gupta et al.
        (DSN'15) report and the paper cites.  Zero by default (the
        calibrated presets assume independent failures).
    """

    horizon: float = 6 * 3600.0
    background_rate: float = 1 / 120.0
    ambient_anomaly_rate: float = 1 / 2400.0
    failure_count: int = 40
    near_miss_ratio: float = 0.6
    maintenance_count: int = 1
    maintenance_fraction: float = 0.25
    downtime: float = 300.0
    edge_margin: float = 900.0
    cascade_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon <= 2 * self.edge_margin:
            raise LogGenerationError(
                "horizon must exceed twice the edge margin "
                f"({self.horizon} vs 2*{self.edge_margin})"
            )
        if self.background_rate <= 0:
            raise LogGenerationError("background_rate must be > 0")
        if self.ambient_anomaly_rate < 0:
            raise LogGenerationError("ambient_anomaly_rate must be >= 0")
        if self.failure_count < 0:
            raise LogGenerationError("failure_count must be >= 0")
        if self.near_miss_ratio < 0:
            raise LogGenerationError("near_miss_ratio must be >= 0")
        if not 0 <= self.maintenance_fraction <= 1:
            raise LogGenerationError("maintenance_fraction must be in [0, 1]")
        if self.downtime < 0:
            raise LogGenerationError("downtime must be >= 0")
        if not 0.0 <= self.cascade_prob < 1.0:
            raise LogGenerationError("cascade_prob must be in [0, 1)")


@dataclass(frozen=True)
class FailureEvent:
    """Ground truth for one injected anomalous node failure."""

    node: CrayNodeId
    failure_class: FailureClass
    chain_name: str
    first_anomaly_time: float
    terminal_time: float

    @property
    def lead_time(self) -> float:
        """Seconds between the first anomalous phrase and the terminal."""
        return self.terminal_time - self.first_anomaly_time


@dataclass(frozen=True)
class NearMissEvent:
    """Ground truth for an anomalous sequence that did *not* end in failure."""

    node: CrayNodeId
    failure_class: FailureClass
    chain_name: str
    start_time: float
    end_time: float


@dataclass(frozen=True)
class MaintenanceEvent:
    """A mass service shutdown (not an anomalous failure)."""

    start_time: float
    nodes: tuple[CrayNodeId, ...]


@dataclass
class GroundTruth:
    """All injected events, with query helpers for evaluation."""

    failures: list[FailureEvent] = field(default_factory=list)
    near_misses: list[NearMissEvent] = field(default_factory=list)
    maintenance: list[MaintenanceEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.failures.sort(key=lambda f: f.terminal_time)
        self._terminal_times = [f.terminal_time for f in self.failures]

    def failure_near(
        self, node: CrayNodeId, when: float, *, lookahead: float = 600.0
    ) -> Optional[FailureEvent]:
        """The failure on *node* whose terminal falls in [when, when+lookahead].

        Used to score a prediction raised at time *when*: a true positive
        is a matching upcoming terminal on the same node.
        """
        lo = bisect.bisect_left(self._terminal_times, when)
        hi = bisect.bisect_right(self._terminal_times, when + lookahead)
        for f in self.failures[lo:hi]:
            if f.node == node:
                return f
        return None

    def summary(self) -> dict[str, int]:
        """Event counts per kind (failures, near misses, maintenance)."""
        return {
            "failures": len(self.failures),
            "near_misses": len(self.near_misses),
            "maintenance_windows": len(self.maintenance),
        }


@dataclass(frozen=True)
class GeneratedLog:
    """A complete synthetic log plus its ground truth and provenance."""

    records: tuple[LogRecord, ...]
    ground_truth: GroundTruth
    topology: ClusterTopology
    catalog: TemplateCatalog
    config: GeneratorConfig

    def __len__(self) -> int:
        return len(self.records)

    def lines(self) -> Iterable[str]:
        """Render every record as a raw log line (sorted by time)."""
        from .record import render_line

        return (render_line(r) for r in self.records)

    def split(self, train_fraction: float) -> tuple["GeneratedLog", "GeneratedLog"]:
        """Chronological split (the paper's 30/70 train/test protocol).

        Ground-truth events are partitioned by terminal/end time into the
        half whose time range contains them.
        """
        if not 0 < train_fraction < 1:
            raise LogGenerationError(
                f"train_fraction must be in (0, 1), got {train_fraction}"
            )
        cut = self.config.horizon * train_fraction
        train_records = tuple(r for r in self.records if r.timestamp < cut)
        test_records = tuple(r for r in self.records if r.timestamp >= cut)
        gt = self.ground_truth

        def _split_gt(before: bool) -> GroundTruth:
            keep = (lambda t: t < cut) if before else (lambda t: t >= cut)
            return GroundTruth(
                failures=[f for f in gt.failures if keep(f.terminal_time)],
                near_misses=[m for m in gt.near_misses if keep(m.end_time)],
                maintenance=[m for m in gt.maintenance if keep(m.start_time)],
            )

        train = GeneratedLog(
            train_records, _split_gt(True), self.topology, self.catalog, self.config
        )
        test = GeneratedLog(
            test_records, _split_gt(False), self.topology, self.catalog, self.config
        )
        return train, test


class LogGenerator:
    """Generate synthetic Cray-style logs with exact ground truth."""

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        catalog: TemplateCatalog | None = None,
        fault_model: FaultModel | None = None,
        workload: WorkloadModel | None = None,
    ) -> None:
        self.topology = topology
        self.catalog = catalog if catalog is not None else default_catalog()
        self.fault_model = (
            fault_model if fault_model is not None else default_fault_model()
        )
        self.fault_model.validate_against(self.catalog)
        self.workload = workload if workload is not None else WorkloadModel()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(
        self, config: GeneratorConfig, rng: np.random.Generator
    ) -> GeneratedLog:
        """Produce one complete log for the given configuration."""
        records: list[LogRecord] = []
        truth = GroundTruth()

        nodes = self.topology.node_list()
        downtimes: dict[CrayNodeId, list[tuple[float, float]]] = {n: [] for n in nodes}

        # 1. failure chains (placed first so downtime windows are known).
        failures = self._place_failures(config, rng, nodes, downtimes)
        for event, chain_records in failures:
            truth.failures.append(event)
            records.extend(chain_records)

        # 2. near-miss chains.
        n_near = int(round(config.failure_count * config.near_miss_ratio))
        for event, chain_records in self._place_near_misses(
            config, rng, nodes, downtimes, n_near
        ):
            truth.near_misses.append(event)
            records.extend(chain_records)

        # 3. maintenance windows (mass shutdowns + reboots).
        for event, maint_records in self._place_maintenance(
            config, rng, nodes, downtimes
        ):
            truth.maintenance.append(event)
            records.extend(maint_records)

        # 4. background noise + ambient anomalies, masked by downtime.
        records.extend(self._background(config, rng, nodes, downtimes))

        # 5. job workload records, masked by downtime.
        jobs = self.workload.sample_jobs(rng, self.topology, config.horizon)
        job_records = self.workload.job_records(rng, jobs, self.catalog, config.horizon)
        records.extend(
            r for r in job_records if not self._is_down(downtimes, r.node, r.timestamp)
        )

        records.sort(key=lambda r: (r.timestamp, r.source_text))
        truth.__post_init__()  # re-sort failure index after appends
        return GeneratedLog(
            records=tuple(records),
            ground_truth=truth,
            topology=self.topology,
            catalog=self.catalog,
            config=config,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _is_down(
        downtimes: dict[CrayNodeId, list[tuple[float, float]]],
        node: Optional[CrayNodeId],
        when: float,
    ) -> bool:
        if node is None:
            return False
        return any(lo <= when < hi for lo, hi in downtimes.get(node, ()))

    def _emit(
        self,
        rng: np.random.Generator,
        key: str,
        node: Optional[CrayNodeId],
        when: float,
    ) -> LogRecord:
        tpl = self.catalog.get(key)
        return LogRecord(
            timestamp=when, node=node, facility=tpl.facility, message=tpl.fill(rng)
        )

    def _reboot_records(
        self, rng: np.random.Generator, node: CrayNodeId, at: float, horizon: float
    ) -> list[LogRecord]:
        """Boot chatter after a downed node comes back."""
        out: list[LogRecord] = []
        for i, key in enumerate(("wait4boot", "ec_node_info", "mount_nid")):
            t = at + 2.0 * i + float(rng.uniform(0.0, 1.0))
            if t < horizon:
                out.append(self._emit(rng, key, node, t))
        return out

    def _instantiate_chain(
        self,
        rng: np.random.Generator,
        chain: ChainTemplate,
        node: CrayNodeId,
        terminal_time: float,
        *,
        with_terminal: bool,
    ) -> tuple[list[LogRecord], float]:
        """Materialize chain records; returns (records, first_anomaly_time).

        Failure chains (``with_terminal=True``) replay the template's
        stages verbatim.  Near misses replay a *perturbed* copy — some
        stages dropped, some substituted with other anomalous phrases —
        matching the paper's Table 9 observation that non-failing
        sequences share phrases with failure chains without being
        identical, and end in recovery messages instead of a terminal.
        """
        offsets = chain.sample_offsets(rng)
        stage_keys: list[str] = list(chain.stage_keys)
        if not with_terminal:
            unknown = self.catalog.by_label("unknown")
            keys: list[str] = []
            for key in stage_keys:
                roll = rng.random()
                if roll < 0.30:
                    continue  # stage masked (the fault was corrected)
                if roll < 0.50:
                    key = unknown[int(rng.integers(0, len(unknown)))].key
                keys.append(key)
            while len(keys) < 2:
                keys.append(stage_keys[int(rng.integers(0, len(stage_keys)))])
            stage_keys = keys
            offsets = offsets[: len(stage_keys)]
            if len(offsets) < len(stage_keys):
                offsets = chain.sample_offsets(rng)[: len(stage_keys)]
        out: list[LogRecord] = []
        for key, off in zip(stage_keys, offsets):
            out.append(self._emit(rng, key, node, terminal_time - float(off)))
        if with_terminal:
            out.append(self._emit(rng, chain.terminal_key, node, terminal_time))
        else:
            for j, key in enumerate(chain.recovery_keys):
                out.append(
                    self._emit(rng, key, node, terminal_time + 3.0 * (j + 1))
                )
        first = terminal_time - float(offsets[0])
        return out, first

    def _sample_event_slot(
        self,
        config: GeneratorConfig,
        rng: np.random.Generator,
        nodes: Sequence[CrayNodeId],
        downtimes: dict[CrayNodeId, list[tuple[float, float]]],
        *,
        clearance: float,
    ) -> tuple[CrayNodeId, float]:
        """Pick a (node, terminal_time) not colliding with existing downtime."""
        lo = config.edge_margin
        hi = config.horizon - config.edge_margin
        for _ in range(200):
            node = nodes[int(rng.integers(0, len(nodes)))]
            when = float(rng.uniform(lo, hi))
            window = (when - clearance, when + clearance + config.downtime)
            if not any(
                w_lo < window[1] and window[0] < w_hi
                for w_lo, w_hi in downtimes[node]
            ):
                return node, when
        raise LogGenerationError(
            "could not place an event without collisions; "
            "reduce failure_count or enlarge the horizon"
        )

    def _place_failures(
        self,
        config: GeneratorConfig,
        rng: np.random.Generator,
        nodes: Sequence[CrayNodeId],
        downtimes: dict[CrayNodeId, list[tuple[float, float]]],
    ) -> list[tuple[FailureEvent, list[LogRecord]]]:
        out: list[tuple[FailureEvent, list[LogRecord]]] = []
        for _ in range(config.failure_count):
            chain = self.fault_model.sample_chain(rng)
            clearance = chain.lead_mean + 4 * chain.lead_std
            node, terminal_time = self._sample_event_slot(
                config, rng, nodes, downtimes, clearance=clearance
            )
            out.append(
                self._materialize_failure(
                    config, rng, downtimes, chain, node, terminal_time
                )
            )
            # Spatial correlation: a failure may cascade to a cabinet
            # mate a few minutes later (shared power/cooling/interconnect).
            if config.cascade_prob > 0 and rng.random() < config.cascade_prob:
                cascade = self._try_cascade(config, rng, downtimes, node, terminal_time)
                if cascade is not None:
                    out.append(cascade)
        return out

    def _try_cascade(
        self,
        config: GeneratorConfig,
        rng: np.random.Generator,
        downtimes: dict[CrayNodeId, list[tuple[float, float]]],
        origin: CrayNodeId,
        origin_terminal: float,
    ) -> Optional[tuple[FailureEvent, list[LogRecord]]]:
        """Place a correlated follow-up failure in *origin*'s cabinet."""
        mates = self.topology.cabinet_mates(origin)
        if not mates:
            return None
        chain = self.fault_model.sample_chain(rng)
        clearance = chain.lead_mean + 4 * chain.lead_std
        for _ in range(10):
            mate = mates[int(rng.integers(0, len(mates)))]
            terminal_time = origin_terminal + float(rng.uniform(60.0, 240.0))
            if terminal_time >= config.horizon - config.edge_margin:
                continue
            window = (
                terminal_time - clearance,
                terminal_time + clearance + config.downtime,
            )
            if any(
                lo < window[1] and window[0] < hi for lo, hi in downtimes[mate]
            ):
                continue
            return self._materialize_failure(
                config, rng, downtimes, chain, mate, terminal_time
            )
        return None

    def _materialize_failure(
        self,
        config: GeneratorConfig,
        rng: np.random.Generator,
        downtimes: dict[CrayNodeId, list[tuple[float, float]]],
        chain: ChainTemplate,
        node: CrayNodeId,
        terminal_time: float,
    ) -> tuple[FailureEvent, list[LogRecord]]:
        """Instantiate one failure chain + downtime + reboot on *node*."""
        chain_records, first = self._instantiate_chain(
            rng, chain, node, terminal_time, with_terminal=True
        )
        # The chain itself plus the downtime must stay clear of other
        # traffic for this node.
        downtimes[node].append((first, terminal_time + config.downtime))
        chain_records.extend(
            self._reboot_records(
                rng, node, terminal_time + config.downtime, config.horizon
            )
        )
        return (
            FailureEvent(
                node=node,
                failure_class=chain.failure_class,
                chain_name=chain.name,
                first_anomaly_time=first,
                terminal_time=terminal_time,
            ),
            chain_records,
        )

    def _place_near_misses(
        self,
        config: GeneratorConfig,
        rng: np.random.Generator,
        nodes: Sequence[CrayNodeId],
        downtimes: dict[CrayNodeId, list[tuple[float, float]]],
        count: int,
    ) -> list[tuple[NearMissEvent, list[LogRecord]]]:
        out: list[tuple[NearMissEvent, list[LogRecord]]] = []
        for _ in range(count):
            chain = self.fault_model.sample_chain(rng)
            clearance = chain.lead_mean + 4 * chain.lead_std
            node, pseudo_terminal = self._sample_event_slot(
                config, rng, nodes, downtimes, clearance=clearance
            )
            chain_records, first = self._instantiate_chain(
                rng, chain, node, pseudo_terminal, with_terminal=False
            )
            end = max(r.timestamp for r in chain_records)
            # Reserve only the chain span; the node stays up (no downtime).
            downtimes[node].append((first, first))  # zero-width marker
            out.append(
                (
                    NearMissEvent(
                        node=node,
                        failure_class=chain.failure_class,
                        chain_name=chain.name,
                        start_time=first,
                        end_time=end,
                    ),
                    chain_records,
                )
            )
        return out

    def _place_maintenance(
        self,
        config: GeneratorConfig,
        rng: np.random.Generator,
        nodes: Sequence[CrayNodeId],
        downtimes: dict[CrayNodeId, list[tuple[float, float]]],
    ) -> list[tuple[MaintenanceEvent, list[LogRecord]]]:
        out: list[tuple[MaintenanceEvent, list[LogRecord]]] = []
        count = max(1, int(round(len(nodes) * config.maintenance_fraction)))
        for _ in range(config.maintenance_count):
            start = float(
                rng.uniform(config.edge_margin, config.horizon - config.edge_margin)
            )
            picked = self.topology.sample_nodes(rng, min(count, len(nodes)))
            records: list[LogRecord] = []
            for node in picked:
                # Shutdown messages land within seconds of each other — the
                # mass-reboot signature administrators recognize.
                t = start + float(rng.uniform(0.0, 20.0))
                records.append(self._emit(rng, "node_unavail_shutdown", node, t))
                downtimes[node].append((t, t + config.downtime))
                records.extend(
                    self._reboot_records(rng, node, t + config.downtime, config.horizon)
                )
            out.append((MaintenanceEvent(start_time=start, nodes=tuple(picked)), records))
        return out

    def _background(
        self,
        config: GeneratorConfig,
        rng: np.random.Generator,
        nodes: Sequence[CrayNodeId],
        downtimes: dict[CrayNodeId, list[tuple[float, float]]],
    ) -> list[LogRecord]:
        """Benign noise: bursty template runs plus periodic heartbeats.

        Real console logs are highly repetitive — a template typically
        repeats several times in a burst, and daemons emit heartbeats on
        a fixed period.  This structure is what makes next-phrase
        prediction learnable at all (the paper's ~85% phase-1 accuracy);
        i.i.d. noise would be information-theoretically unpredictable.
        """
        records: list[LogRecord] = []
        unknown_templates = self.catalog.by_label("unknown")
        mean_burst = 3.0
        for node in nodes:
            # Periodic heartbeat: one rca heartbeat every ~10 minutes.
            period = 600.0 * float(rng.uniform(0.9, 1.1))
            phase = float(rng.uniform(0.0, period))
            hb = self.catalog.get("rca_heartbeat_ok")
            t = phase
            while t < config.horizon:
                if not self._is_down(downtimes, node, t):
                    records.append(
                        LogRecord(
                            timestamp=t,
                            node=node,
                            facility=hb.facility,
                            message=hb.fill(rng),
                        )
                    )
                t += period
            # Bursty noise: geometric-length runs of one template.
            n_events = config.background_rate * config.horizon
            n_bursts = int(rng.poisson(max(n_events / mean_burst, 1e-9)))
            starts = rng.uniform(0.0, config.horizon, size=n_bursts)
            for start in starts:
                tpl = self.catalog.sample_safe(rng)
                run = 1 + int(rng.geometric(1.0 / mean_burst))
                t = float(start)
                for _ in range(min(run, 8)):
                    if t >= config.horizon:
                        break
                    if not self._is_down(downtimes, node, t):
                        records.append(
                            LogRecord(
                                timestamp=t,
                                node=node,
                                facility=tpl.facility,
                                message=tpl.fill(rng),
                            )
                        )
                    t += float(rng.exponential(3.0)) + 0.2
            n_ambient = int(
                rng.poisson(config.ambient_anomaly_rate * config.horizon)
            )
            times = rng.uniform(0.0, config.horizon, size=n_ambient)
            for t in times:
                if self._is_down(downtimes, node, float(t)):
                    continue
                tpl = unknown_templates[int(rng.integers(0, len(unknown_templates)))]
                records.append(
                    LogRecord(
                        timestamp=float(t),
                        node=node,
                        facility=tpl.facility,
                        message=tpl.fill(rng),
                    )
                )
        return records
