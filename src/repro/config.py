"""Configuration: Azure instance catalog (Table II), cluster and Hadoop knobs.

All times are seconds, all sizes megabytes, matching the rest of the project.
The default constants are calibrated so the *relative* results of the paper's
evaluation reproduce; see DESIGN.md §6 and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .cluster.resources import ResourceVector

#: One HDFS block (Hadoop 2.2 default dfs.blocksize = 64 MB).
DEFAULT_BLOCK_SIZE_MB = 64.0


@dataclass(frozen=True)
class InstanceType:
    """A Microsoft Azure VM flavor (paper Table II)."""

    name: str
    cores: int
    memory_gb: float
    disk_gb: int
    price_per_hour: float
    #: Measured-ish local disk throughput for the A-series (MB/s) — Azure
    #: standard (HDD-backed, shared) storage, far below dedicated spindles.
    disk_read_mb_s: float = 50.0
    disk_write_mb_s: float = 40.0
    #: Aggregate-throughput collapse under n concurrent streams (HDD seeks):
    #: capacity scale = 1 / (1 + penalty * (n - 1)).
    disk_seek_penalty: float = 0.3
    #: Effective inter-VM throughput (MB/s); 2013-era A-series networking ran
    #: at a few hundred Mbit/s, nowhere near line rate.
    network_mb_s: float = 25.0

    @property
    def memory_mb(self) -> int:
        return int(self.memory_gb * 1024)

    def capability(self) -> ResourceVector:
        return ResourceVector(memory_mb=self.memory_mb, vcores=self.cores)


#: Paper Table II: Microsoft Azure instance types. Larger A-series VMs got
#: proportionally more storage/network bandwidth (striped standard storage),
#: which is what makes the equal-cost comparison of Figure 13 interesting.
INSTANCE_TYPES: dict[str, InstanceType] = {
    "A1": InstanceType("A1", cores=1, memory_gb=1.75, disk_gb=70, price_per_hour=0.09,
                       disk_read_mb_s=40.0, disk_write_mb_s=32.0, network_mb_s=20.0),
    "A2": InstanceType("A2", cores=2, memory_gb=3.5, disk_gb=135, price_per_hour=0.18,
                       disk_read_mb_s=50.0, disk_write_mb_s=40.0, network_mb_s=25.0),
    "A3": InstanceType("A3", cores=4, memory_gb=7.0, disk_gb=285, price_per_hour=0.36,
                       disk_read_mb_s=60.0, disk_write_mb_s=48.0, network_mb_s=30.0),
}


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of a simulated cluster: N DataNodes of one instance type."""

    instance: InstanceType
    num_datanodes: int
    racks: int = 2
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_datanodes < 1:
            raise ValueError("need at least one DataNode")
        if self.racks < 1 or self.racks > self.num_datanodes:
            raise ValueError("racks must be in [1, num_datanodes]")

    @property
    def hourly_cost(self) -> float:
        # NameNode + DataNodes, as in the paper's equal-cost comparison.
        return (self.num_datanodes + 1) * self.instance.price_per_hour


def a3_cluster(num_datanodes: int = 4) -> ClusterSpec:
    """Paper's first testbed: 1 NameNode + 4 A3 DataNodes."""
    return ClusterSpec(INSTANCE_TYPES["A3"], num_datanodes,
                       racks=min(2, num_datanodes), name=f"A3x{num_datanodes}")


def a2_cluster(num_datanodes: int = 9) -> ClusterSpec:
    """Paper's second testbed: 1 NameNode + 9 A2 DataNodes."""
    return ClusterSpec(INSTANCE_TYPES["A2"], num_datanodes,
                       racks=min(3, num_datanodes), name=f"A2x{num_datanodes}")


#: SLO classes the serving layer distinguishes (:mod:`repro.serving`).
SLO_LATENCY = "latency"
SLO_BATCH = "batch"
SLO_CLASSES = (SLO_LATENCY, SLO_BATCH)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the SLO-aware serving layer (:mod:`repro.serving`).

    Attached to :class:`HadoopConfig` as ``conf.serving``; the default
    ``None`` keeps every figure and replay byte-identical to the
    pre-serving behaviour. Constructing one enables outcome accounting;
    ``admission``/``degradation``/``autoscale`` gate the active policies.
    """

    # -- SLO classes ---------------------------------------------------------
    #: Deadline applied to latency-class jobs whose template/trace line
    #: does not carry an explicit one (seconds after arrival).
    latency_deadline_s: float = 60.0

    # -- admission control --------------------------------------------------
    #: Size-based admission: reject latency jobs whose predicted sojourn
    #: already busts their deadline, bound the pending queue, shed batch
    #: work first. Off = every job is submitted straight to YARN.
    admission: bool = True
    #: Pending (admitted-but-not-yet-dispatched) queue bound.
    max_pending: int = 24
    #: Jobs dispatched concurrently per *healthy* node (the serving-layer
    #: concurrency window in front of YARN's own AM admission control).
    slots_per_node: int = 3

    # -- overload degradation ladder -----------------------------------------
    #: Force uber/U+ for latency jobs and suspend speculation for batch
    #: while the pending queue is past the ladder's threshold
    #: (:data:`repro.serving.admission.DEGRADE_AT_PENDING_FRACTION`).
    degradation: bool = True

    # -- reactive autoscaling -------------------------------------------------
    autoscale: bool = False
    min_nodes: int = 2
    max_nodes: int = 8

    # -- size estimate --------------------------------------------------------
    #: Optimistic first guess for unseen job signatures (same first-samples
    #: strategy as HFSP training); seen ones use their service-time EWMA.
    initial_guess_s: float = 8.0

    def __post_init__(self) -> None:
        if self.initial_guess_s <= 0:
            raise ValueError("initial_guess_s must be positive")

    def with_(self, **kwargs) -> "ServingConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class TunerConfig:
    """Knobs of the self-optimizing mode picker (:mod:`repro.tuner`).

    Attached to :class:`HadoopConfig` as ``conf.tuner``; the default ``None``
    disables the tuner entirely — no store is opened, the ``auto`` replay
    strategy falls back to the Eq. 1–3 analytic decision, and every figure
    snapshot stays byte-identical. Constructing one with ``history_db`` set
    enables online learning: completed runs are recorded per
    ``(signature, mode)`` and future ``auto`` decisions exploit the learned
    estimates once each candidate has a successful run.
    """

    #: Path of the durable :class:`~repro.tuner.store.RunHistoryStore`: an
    #: SQLite file, or ``":memory:"`` for an in-process store (learning
    #: without persistence). ``None`` disables learning — ``auto`` stays
    #: purely analytic.
    history_db: Optional[str] = None
    #: Candidate modes the ``auto`` picker chooses among, in deterministic
    #: exploration order. ``speculative`` is a valid extra candidate but
    #: costs duplicate launches, so it is not explored by default.
    candidates: tuple = ("stock", "dplus", "uplus", "uber")


#: The slow window of the SLO burn-rate alert
#: (:class:`repro.telemetry.BurnRateRule`); a telemetry ring with alerts on
#: must retain at least this much history.
BURN_SLOW_WINDOW_S = 180.0


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the continuous-telemetry subsystem (:mod:`repro.telemetry`).

    Attached to :class:`HadoopConfig` as ``conf.telemetry``; the default
    ``None`` disables telemetry entirely — no scraper hook is installed,
    every instrumentation site costs one ``is not None`` attribute read,
    and all figure snapshots stay byte-identical. Constructing one enables
    sim-time scraping into bounded ring buffers plus (when ``alerts``) the
    alert-rule engine.
    """

    # -- scraping -------------------------------------------------------------
    #: Sampling cadence in *simulated* seconds. Samples are taken from the
    #: kernel's event-pop hook, so scraping adds zero events to the
    #: schedule and cannot perturb event order.
    scrape_interval_s: float = 1.0
    #: Ring-buffer length per series; older samples are evicted, bounding
    #: retention at ``retention_samples * num_series`` floats.
    retention_samples: int = 512
    #: Minimum simulated seconds between recomputes of the O(nodes) probes
    #: (per-node utilization, per-rack liveness, heartbeat staleness,
    #: most-loaded fabric link).
    #: Scrapes between recomputes re-export the cached values, keeping the
    #: 1 s scrape cadence affordable at 10k nodes.
    node_probe_interval_s: float = 5.0

    # -- alert rules ----------------------------------------------------------
    #: Evaluate the rules of :mod:`repro.telemetry.alerts` after every
    #: scrape.
    alerts: bool = True

    def __post_init__(self) -> None:
        # A burn-rate window edge reads the latest sample at or before
        # ``t - window`` and takes "none" to mean "before the run" (a zero
        # baseline). The ring spans ``retention_samples - 1`` scrape
        # intervals, less one slot for the closing off-grid sample, so a
        # shorter span would evict a baseline the slow window still needs
        # and stretch that window over the whole run.
        span = (self.retention_samples - 2) * self.scrape_interval_s
        if self.alerts and span < BURN_SLOW_WINDOW_S:
            raise ValueError(
                f"retention_samples={self.retention_samples} at "
                f"scrape_interval_s={self.scrape_interval_s:g} retains "
                f"{span:g}s, less than the {BURN_SLOW_WINDOW_S:g}s "
                f"slow burn-rate window; "
                f"keep (retention_samples - 2) * scrape_interval_s >= "
                f"{BURN_SLOW_WINDOW_S:g}, or turn alerts off")


@dataclass(frozen=True)
class HadoopConfig:
    """Timing and sizing knobs of the simulated Hadoop 2.2 stack."""

    # -- heartbeats (seconds) -------------------------------------------------
    nm_heartbeat_s: float = 1.0        # yarn.resourcemanager.nodemanagers.heartbeat-interval-ms
    am_heartbeat_s: float = 1.0        # MRAppMaster allocate interval
    rpc_latency_s: float = 0.005       # one-way RPC latency
    #: Phase quantum of the NM heartbeat wheel: node phase offsets snap to
    #: this grid so cohorts of nodes share beat instants and one aggregate
    #: tick serves all of them (essential at 1k-10k nodes). 0.0 keeps every
    #: node's exact per-node phase — byte-identical to the historical
    #: per-process heartbeat loops.
    nm_heartbeat_quantum_s: float = 0.0

    # -- container / JVM costs --------------------------------------------------
    container_launch_s: float = 2.5    # t^l: JVM start + localization
    am_init_s: float = 1.5             # AM parses conf, downloads splits
    task_setup_s: float = 0.4          # per-task setup sub-phase inside the JVM
    uber_task_setup_s: float = 0.1     # per-task setup when reusing the AM JVM
    client_submit_s: float = 0.8       # job-file upload + submission round trips
    task_commit_rpc_s: float = 0.05    # per-task status/commit round-trips via
                                       # the stock RM/umbilical path; MRapid's
                                       # RPC framework short-circuits these

    # -- container sizing ----------------------------------------------------------
    container_memory_mb: int = 1024    # mapreduce.map.memory.mb
    container_vcores: int = 1
    am_memory_mb: int = 1536
    am_vcores: int = 1
    containers_per_core: int = 1       # Fig 12 varies this via vcore multiplier
    #: yarn.scheduler.capacity.maximum-am-resource-percent: at most this
    #: fraction of cluster memory may be held by ApplicationMaster
    #: containers; further apps wait in the AM queue. 1.0 (no limit)
    #: preserves the one-shot figure behaviour; the heavy-traffic replay
    #: harness lowers it so admission control (and hence job *ordering*)
    #: matters, as on a real loaded cluster.
    am_resource_fraction: float = 1.0

    # -- MapReduce behaviour ----------------------------------------------------
    block_size_mb: float = DEFAULT_BLOCK_SIZE_MB
    sort_buffer_mb: float = 100.0      # mapreduce.task.io.sort.mb
    replication: int = 3
    slowstart_completed_maps: float = 0.05  # mapreduce.job.reduce.slowstart.completedmaps

    # -- Uber thresholds (Hadoop defaults) -----------------------------------------
    uber_max_maps: int = 9
    uber_max_reduces: int = 1

    # -- fault tolerance -------------------------------------------------------------
    max_task_attempts: int = 4         # mapreduce.map/reduce.maxattempts
    am_max_attempts: int = 2           # yarn.resourcemanager.am.max-attempts
    #: Second AM attempt replays completed-task history instead of re-running
    #: the whole job (yarn.app.mapreduce.am.job.recovery.enable).
    am_work_preserving_recovery: bool = True
    #: AM-level node blacklisting (yarn.app.mapreduce.am.job.node-blacklisting
    #: .enable + mapreduce.job.maxtaskfailures.per.tracker).
    node_blacklist_enabled: bool = True
    max_failures_per_node: int = 3

    # -- in-job straggler speculation (mapreduce.map.speculative) ----------------------
    # Distinct from MRapid's *mode* speculation: this duplicates slow task
    # attempts within one job. Off by default so the calibrated figures match
    # a stock-configured cluster; the straggler benchmarks turn it on.
    speculative_tasks: bool = False
    speculative_slowness: float = 1.5  # duplicate when elapsed > 1.5x avg
    speculative_min_completed: int = 1 # need this many finished maps first

    # -- SLO-aware serving mode (repro.serving) ---------------------------------
    #: ``None`` (the default) disables the serving layer entirely, keeping
    #: every one-shot figure and replay byte-identical to earlier releases.
    serving: Optional[ServingConfig] = None

    # -- continuous telemetry (repro.telemetry) ---------------------------------
    #: ``None`` (the default) disables the telemetry subsystem; replays and
    #: figures behave byte-identically to earlier releases.
    telemetry: Optional[TelemetryConfig] = None

    # -- self-optimizing mode picker (repro.tuner) ------------------------------
    #: ``None`` (the default) disables the run-history tuner; the ``auto``
    #: replay strategy then decides purely from Eq. 1–3 and every existing
    #: figure and replay is byte-identical to earlier releases.
    tuner: Optional[TunerConfig] = None

    def effective_vcores(self, physical_cores: int) -> int:
        """Schedulable vcores a NodeManager advertises (Fig 12 knob)."""
        return physical_cores * self.containers_per_core

    def container_resource(self):
        """The per-task container ask.

        ``containers_per_core > 1`` shrinks per-container memory so the
        cluster admits that many containers per core (how the paper's
        Figure 12 configuration achieves 2 containers/core under Hadoop
        2.2's memory-only DefaultResourceCalculator).
        """
        from .cluster.resources import ResourceVector

        return ResourceVector(self.container_memory_mb // self.containers_per_core,
                              self.container_vcores)

    def with_(self, **kwargs) -> "HadoopConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class MRapidConfig:
    """Feature switches of MRapid; each maps to an optimization the paper
    ablates in Figures 14 and 15."""

    # D+ mode (Fig 14)
    balanced_spread: bool = True        # Algorithm 1 round-robin vs greedy
    locality_aware: bool = True         # NodeLocal -> RackLocal -> ANY ordering
    respond_same_heartbeat: bool = True # allocate from ClusterResource snapshot
    use_am_pool: bool = True            # submission framework AM reuse

    # U+ mode (Fig 15)
    parallel_maps: bool = True          # multithreaded maps in the AM container
    memory_cache: bool = True           # keep intermediate data in RAM
    maps_per_vcore: int = 1             # n_c^m
    memory_cache_limit_mb: float = 256.0

    # shared (both modes)
    reduce_communication: bool = True   # skip per-task commit RPCs (Figs 14/15)

    # extension (paper related-work [14], LARTS): ask for the reduce
    # container on the node holding the most map output, shrinking the
    # shuffle. Off by default — the paper's MRapid does not include it.
    reduce_locality_aware: bool = False

    # submission framework
    am_pool_size: int = 3               # paper default

    def with_(self, **kwargs) -> "MRapidConfig":
        return replace(self, **kwargs)


#: All MRapid optimizations off == stock Hadoop behaviour (ablation anchor).
STOCK_DPLUS = MRapidConfig(
    balanced_spread=False, locality_aware=False,
    respond_same_heartbeat=False, use_am_pool=False,
    parallel_maps=False, memory_cache=False,
    reduce_communication=False,
)
