"""Continuous cluster telemetry: sim-time series, exporters, alerting.

The missing middle between PR 3's per-job tracing and PR 5's end-of-run
``LoadReport``: a long replay is observable *while it runs*. The pieces:

* :mod:`.instruments` — counters/gauges/histograms in a registry; push
  sites guard on ``env.telemetry is not None`` (tracer discipline), pull
  instruments wrap cheap reads of state the cluster maintains anyway;
* :mod:`.scraper` — samples the registry on a simulated-time grid from
  the kernel's event-pop hook, so enabling telemetry adds **zero events**
  and cannot perturb event order (the sanitizer gates on digest equality
  with the telemetry-off run);
* :mod:`.openmetrics` — OpenMetrics text + JSONL exporters;
* :mod:`.alerts` — edge-triggered rules over the ring buffers, headlined
  by multi-window SLO burn-rate (Google SRE style).

The paper's imbalance quantities (max-min node CPU and disk load) are
telemetry gauges too: Figure E2 reads the ``cluster_cpu_imbalance`` ring,
so one sampling mechanism serves the figures and live runs alike.

Enable with ``HadoopConfig(telemetry=TelemetryConfig())`` (the replay
driver installs it) or :func:`install_telemetry` directly.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Callable, Optional

from ..config import TelemetryConfig
from .alerts import (Alert, AlertEngine, AlertSummary, BurnRateRule,
                     HeartbeatStalenessRule, QueueSaturationRule, Rule,
                     UnderReplicationRule)
from .instruments import (Counter, Gauge, Histogram, LabelSet,
                          TelemetryRegistry)
from .openmetrics import parse_openmetrics, render_jsonl, render_openmetrics
from .scraper import RingSeries, Scraper

if TYPE_CHECKING:  # pragma: no cover
    from ..serving.runtime import ServingRuntime
    from ..simcluster import SimCluster

__all__ = [
    "Alert", "AlertEngine", "AlertSummary", "BurnRateRule", "Counter",
    "Gauge", "HeartbeatStalenessRule", "Histogram", "KERNEL_SERIES",
    "QueueSaturationRule",
    "RingSeries", "Rule", "Scraper", "Telemetry", "TelemetryConfig",
    "TelemetryRegistry", "UnderReplicationRule", "install_telemetry",
    "is_self_cost", "parse_openmetrics", "render_jsonl", "render_openmetrics",
]

#: Bucket bounds for the sub-minute YARN latencies (grant delay, AM wait).
_WAIT_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                 10.0, 30.0, 60.0, 120.0)

#: A node is heartbeat-stale when silent for more than this multiple of the
#: NM heartbeat interval.
_HEARTBEAT_STALE_FACTOR = 3.0


#: Name prefix of the kernel's own series. Unlike the wheel's ticks, they
#: also move with the order in which the kernel dispatches same-instant
#: events: a replay stops, and a scrape samples the queue, mid-instant.
KERNEL_SERIES = "kernel_"


def is_self_cost(name: str) -> bool:
    """Whether series ``name`` measures the simulator's own work — kernel
    events dispatched, the event heap's size, the heartbeat wheel's ticks —
    rather than the simulated cluster. These move whenever the simulator
    skips work it can prove changes nothing."""
    return name.startswith(KERNEL_SERIES) or name == "rm_wheel_ticks"


#: Series mirrored into ``LoadReport.telemetry["windows"]`` for
#: ``repro trace --json`` (satellite: per-window attainment/queue depth).
_WINDOW_SERIES = ("serving_attainment_recent", "serving_pending_jobs",
                  "serving_running_jobs", "cluster_cpu_utilization")


class _NodeProbeCache:
    """One shared pass for every O(nodes) gauge, at its own slower cadence.

    Per-node utilization, heartbeat staleness, and the most-loaded fabric
    link each cost a walk of (part of) the cluster (links scale with
    nodes); at 10k nodes and a 1 s scrape cadence those walks would
    dominate replay wall time. Per-rack liveness is only a copy of the
    RM's per-rack counts, taken here so it keeps the same cadence. All of
    these move slowly, so (standard practice for expensive collectors) the
    cache recomputes at most every ``interval_s`` of *simulated* time —
    intermediate scrapes re-export the cached values. Both the cadence and
    the staleness check run on the scrape's grid timestamp (``clock``),
    never on the time of the event that triggered the scrape, so how many
    events happen to fall between grid points cannot change a sample.
    """

    def __init__(self, cluster: "SimCluster", stale_after_s: float,
                 interval_s: float, clock: Callable[[], float]) -> None:
        self.cluster = cluster
        self.stale_after_s = stale_after_s
        self.interval_s = interval_s
        self.clock = clock
        self._last_t = -inf
        self.cluster_cpu = 0.0
        self.cpu_imbalance = 0.0
        self.disk_imbalance = 0.0
        self.scheduled_memory_fraction = 0.0
        self.rack_alive: dict[str, int] = {}
        self.rack_registered: dict[str, int] = {}
        self.stale = 0
        self.max_link = 0.0

    def get(self) -> "_NodeProbeCache":
        now = self.clock()
        if now - self._last_t < self.interval_s:
            return self
        self._last_t = now
        self._utilization()
        rm = self.cluster.rm
        states = rm.nodes
        self.rack_alive = dict(rm.rack_alive)
        self.rack_registered = dict(rm.rack_registered)
        # Every registered node is on the heartbeat wheel; without one
        # (heartbeats off) no node ever beats, and NodeState reports 0.0.
        if rm.heartbeat_wheel is None:
            self.stale = (sum(self.rack_alive.values())
                          if now > self.stale_after_s else 0)
        else:
            self.stale = sum(
                1 for node_id in rm.heartbeat_wheel.silent_nodes(
                    now, self.stale_after_s)
                if node_id in states and states[node_id].alive)
        # Only links carrying an active flow can have nonzero utilization,
        # so walk flow paths instead of the full link table — zero cost on
        # an idle fabric, and private per-flow cap links (not real fabric
        # links) never masquerade as the most-loaded link.
        fabric = self.cluster.network.fabric
        best = 0.0
        seen: set[str] = set()
        for flow in fabric.active_flows:
            for link in flow.path:
                if link not in seen:
                    seen.add(link)
                    util = fabric.utilization(link)
                    if util > best:
                        best = util
        self.max_link = best
        return self

    def _utilization(self) -> None:
        """CPU/disk utilization and the paper's max-min imbalance indices.

        Only busy nodes are read: every other node reads zero on both
        devices, and zeros change no sum, and no maximum or minimum beyond
        "some node reads zero".
        """
        cluster = self.cluster
        nodes = cluster.busy_nodes()
        busy = 0.0
        utils: list[float] = []
        disks: list[float] = []
        for node in nodes:
            util = node.cpu.utilization()
            utils.append(util)
            disks.append(float(node.disk.flow_count()))
            busy += util * node.cpu.cores
        if len(nodes) < len(cluster.datanodes):
            utils.append(0.0)
            disks.append(0.0)
        total_cores = cluster.total_cores
        self.cluster_cpu = busy / total_cores if total_cores else 0.0
        self.cpu_imbalance = max(utils) - min(utils) if utils else 0.0
        self.disk_imbalance = max(disks) - min(disks) if disks else 0.0
        total = cluster.rm.total_capability()
        used = cluster.rm.total_used()
        self.scheduled_memory_fraction = (used.memory_mb / total.memory_mb
                                          if total.memory_mb else 0.0)


class Telemetry:
    """Facade owning the registry, scraper, and alert engine for a cluster."""

    def __init__(self, cluster: "SimCluster",
                 config: Optional[TelemetryConfig] = None) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.config = config or cluster.conf.telemetry or TelemetryConfig()
        self.registry = TelemetryRegistry()
        self.scraper = Scraper(
            self.env, self.registry,
            interval_s=self.config.scrape_interval_s,
            retention=self.config.retention_samples)
        self.runtime: Optional["ServingRuntime"] = None
        # Push-site instruments (guarded by ``env.telemetry is not None``).
        self.grant_delay = self.registry.histogram(
            "scheduler_grant_delay", "Queue delay between a container "
            "request entering the scheduler and its grant.", unit="seconds",
            bounds=_WAIT_BUCKETS)
        self.am_alloc_wait = self.registry.histogram(
            "yarn_am_alloc_wait", "Wait from application submission to AM "
            "container allocation.", unit="seconds", bounds=_WAIT_BUCKETS)
        self._register_standard()
        self.engine: Optional[AlertEngine] = None
        if self.config.alerts:
            self.engine = AlertEngine(self.env, self.scraper, [
                HeartbeatStalenessRule(),
                UnderReplicationRule(),
            ])

    # -- standard instruments ------------------------------------------------
    def _register_standard(self) -> None:
        cluster, env, conf = self.cluster, self.env, self.config
        rm = cluster.rm
        reg = self.registry

        # kernel
        reg.counter("kernel_events", "Events dispatched by the simulation "
                    "kernel.", fn=lambda: env.events_processed)
        reg.gauge("kernel_queue_pending", "Entries held by the kernel "
                  "event heap.", fn=lambda: len(env._queue))

        # RM / scheduler
        reg.gauge("rm_pending_apps", "Applications waiting in the RM's AM "
                  "admission queue.", fn=lambda: len(rm._am_queue))
        reg.gauge("rm_memory_used_mb", "Scheduled memory across the cluster.",
                  unit="mb", fn=lambda: rm.total_used().memory_mb)
        reg.gauge("rm_memory_capability_mb", "Total registered memory.",
                  unit="mb", fn=lambda: rm.total_capability().memory_mb)
        reg.gauge("rm_vcores_used", "Scheduled vcores across the cluster.",
                  fn=lambda: rm.total_used().vcores)
        reg.gauge("rm_vcores_capability", "Total registered vcores.",
                  fn=lambda: rm.total_capability().vcores)
        wheel = rm.heartbeat_wheel
        clock = self.scraper.read_time
        if wheel is not None:
            reg.counter("rm_heartbeats", "NodeManager heartbeats made, "
                        "including the idle ones the wheel sleeps through.",
                        fn=lambda: wheel.beats_before(clock()))
            reg.counter("rm_wheel_ticks", "Aggregate wheel tick events (one "
                        "may deliver a whole cohort's beats).",
                        fn=lambda: wheel.ticks)

        # NodeManagers, aggregated per rack so 10k nodes stay bounded. All
        # O(nodes) quantities share one cached walk at its own cadence.
        stale_after = _HEARTBEAT_STALE_FACTOR * cluster.conf.nm_heartbeat_s
        probe = self._probe = _NodeProbeCache(
            cluster, stale_after, conf.node_probe_interval_s, clock)
        topology = cluster.topology
        for rack in sorted(topology.racks):
            reg.gauge("nodes_alive", "Registered nodes alive in this rack.",
                      labels={"rack": rack},
                      fn=lambda r=rack: probe.get().rack_alive.get(r, 0))
            reg.gauge("nodes_registered", "Registered nodes in this rack.",
                      labels={"rack": rack},
                      fn=lambda r=rack: probe.get().rack_registered.get(r, 0))
        reg.gauge("nodes_heartbeat_stale", "Alive nodes silent for more than "
                  f"{_HEARTBEAT_STALE_FACTOR:g}x the heartbeat interval.",
                  fn=lambda: probe.get().stale)

        # fabric / network
        fabric = cluster.network.fabric
        reg.gauge("fabric_active_flows", "Flows in flight on the shared "
                  "fabric.", fn=lambda: len(fabric.active_flows))
        reg.gauge("fabric_max_link_utilization", "Most-loaded fabric link "
                  "(0..1).", fn=lambda: probe.get().max_link)

        # HDFS
        reg.gauge("hdfs_under_replicated_blocks", "Blocks below their "
                  "replication target.",
                  fn=lambda: len(cluster.namenode.under_replicated()))

        # cluster utilization
        reg.gauge("cluster_cpu_utilization", "Cluster-wide CPU utilization "
                  "(0..1).", fn=lambda: probe.get().cluster_cpu)
        reg.gauge("cluster_cpu_imbalance", "Max-min per-node CPU utilization "
                  "(the paper's imbalance index).",
                  fn=lambda: probe.get().cpu_imbalance)
        reg.gauge("cluster_disk_imbalance", "Max-min per-node active disk "
                  "ops.", fn=lambda: probe.get().disk_imbalance)
        reg.gauge("cluster_scheduled_memory_fraction", "Scheduled fraction "
                  "of cluster memory (0..1).",
                  fn=lambda: probe.get().scheduled_memory_fraction)

    # -- serving attachment --------------------------------------------------
    def attach_serving(self, runtime: "ServingRuntime") -> None:
        """Register serving-stack instruments and the SLO alert rules."""
        if self.runtime is not None:
            if self.runtime is runtime:
                return
            raise ValueError("telemetry is already attached to another "
                             "serving runtime")
        self.runtime = runtime
        reg = self.registry
        helps = {
            "latency_jobs": "Latency-class arrivals resolved.",
            "batch_jobs": "Batch-class arrivals resolved.",
            "admitted": "Submissions admitted.",
            "rejected": "Submissions rejected terminally.",
            "shed": "Pending jobs evicted under overload.",
            "retries": "Rejected submissions retried after backoff.",
            "deadline_met": "Latency jobs finishing within deadline.",
            "deadline_missed": "Latency jobs finishing late.",
            "batch_completed": "Batch jobs completed.",
        }
        for key, help_text in helps.items():
            reg.counter(f"serving_{key}", help_text,
                        fn=lambda k=key: runtime.counts[k])
        reg.gauge("serving_pending_jobs", "Admitted jobs awaiting dispatch.",
                  fn=lambda: runtime.pending_count)
        reg.gauge("serving_running_jobs", "Jobs holding a serving slot.",
                  fn=lambda: runtime.running_count)
        reg.gauge("serving_healthy_nodes", "Nodes neither failed nor "
                  "drained.", fn=lambda: runtime.healthy_nodes())
        reg.gauge("serving_attainment_recent", "Windowed latency-SLO "
                  "attainment (autoscaler signal).",
                  fn=lambda: runtime.recent_attainment())
        reg.gauge("serving_attainment_cumulative", "Cumulative latency-SLO "
                  "attainment.", fn=lambda: runtime.attainment.fraction)
        if runtime.autoscaler is not None:
            autoscaler = runtime.autoscaler
            reg.gauge("serving_billable_nodes", "Nodes currently billed "
                      "(includes crashed-but-paid).",
                      fn=lambda: autoscaler.billable_count())
        if self.engine is not None:
            self.engine.rules.append(BurnRateRule())
            self.engine.rules.append(
                QueueSaturationRule(runtime.serving.max_pending))

    # -- lifecycle -----------------------------------------------------------
    def install(self) -> None:
        self.env.telemetry = self
        self.scraper.install()

    def finish(self) -> None:
        """Close out at end of run: one final sample, then release the
        kernel sampler slot.

        Without the uninstall the environment's single ``env.sampler``
        slot stays occupied forever, so installing telemetry on the same
        environment again — a second replay on a long-lived cluster —
        raises ``RuntimeError`` from :meth:`Scraper.install` (MR203:
        ``Scraper.install`` without ``uninstall`` anywhere).
        """
        self.scraper.final_scrape()
        # Release the slot only; ``env.telemetry`` stays set so post-run
        # exports (openmetrics/jsonl/report_section) keep working.
        self.scraper.uninstall()

    # -- exports -------------------------------------------------------------
    def openmetrics(self) -> str:
        return render_openmetrics(self.registry)

    def jsonl(self) -> str:
        return render_jsonl(self.scraper)

    def series(self, name: str,
               labels: LabelSet | dict[str, str] = ()) -> Optional[RingSeries]:
        return self.scraper.series(name, labels)

    def alerts(self) -> list[Alert]:
        return self.engine.alerts if self.engine is not None else []

    def report_section(self, digits: int = 6) -> dict:
        """The ``telemetry`` section of :class:`repro.trace.LoadReport`."""
        scraper = self.scraper
        out: dict = {
            "scrape_interval_s": round(scraper.interval_s, digits),
            "scrapes": scraper.scrapes_done,
            "samples_skipped": scraper.samples_skipped,
            "series": len(scraper.all_series()),
            "retained_samples": scraper.retained_samples(),
            "ring_bytes": scraper.ring_bytes_estimate(),
        }
        if self.engine is not None:
            summary = AlertSummary.of(self.engine)
            out["alerts"] = self.engine.to_rows(digits)
            out["alerts_fired"] = summary.fired
            out["alerts_by_rule"] = summary.by_rule
        windows = {}
        for name in _WINDOW_SERIES:
            ring = scraper.series(name)
            if ring is not None and len(ring):
                windows[name] = ring.to_dict(digits)
        if windows:
            out["windows"] = windows
        return out


def install_telemetry(cluster: "SimCluster",
                      config: Optional[TelemetryConfig] = None) -> Telemetry:
    """Create, install, and return a :class:`Telemetry` for ``cluster``.

    Idempotent per environment: if telemetry is already installed, the
    existing facade is returned (so a driver and a caller who both enable
    it share one registry).
    """
    existing = cluster.env.telemetry
    if existing is not None:
        return existing
    telemetry = Telemetry(cluster, config)
    telemetry.install()
    return telemetry
