"""Host self time per layer, measured from outside the simulator.

:class:`LayerClock` keeps a stack of layers. Every boundary — entering or
leaving a wrapped entry point — charges the time since the previous
boundary to the layer on top of the stack, so each layer's total is its
*self* time directly: a layer's own code, never the layers it calls.

:func:`instrument` patches class and module attributes of ``repro`` with
wrappers that cross those boundaries. It must run before any cluster is
built, because objects capture bound methods (the heartbeat wheel keeps
``ResourceManager.node_heartbeat``, a process's first resume is queued as
``Process._resume``). :meth:`LayerClock.restore` puts every original back.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: Bottom of the stack: time spent in the benchmark's own code.
ROOT = "harness"

#: The layers, as this repository's modules name them.
LAYERS = ("simulation", "yarn.heartbeat", "yarn", "cluster.fabric", "hdfs",
          "mapreduce", "core", "serving", "telemetry", "tuner", "faults",
          "trace", "metrics", "simcluster", "experiments")

#: Module prefix -> layer, for charging a resumed generator to its module.
#: The longest matching prefix wins. ``engine`` and ``workloads`` are the
#: functional MapReduce engine and job profiles the tasks run.
MODULE_LAYERS = {
    "repro.simulation": "simulation",
    "repro.yarn.heartbeat": "yarn.heartbeat",
    "repro.yarn": "yarn",
    "repro.cluster": "cluster.fabric",
    "repro.hdfs": "hdfs",
    "repro.mapreduce": "mapreduce",
    "repro.engine": "mapreduce",
    "repro.workloads": "mapreduce",
    "repro.sparklite": "mapreduce",
    "repro.core": "core",
    "repro.serving": "serving",
    "repro.telemetry": "telemetry",
    "repro.tuner": "tuner",
    "repro.faults": "faults",
    "repro.trace": "trace",
    "repro.metrics": "metrics",
    "repro.simcluster": "simcluster",
    "repro.experiments": "experiments",
}


def layer_of_module(module: str) -> str:
    """The layer that owns ``module``; :data:`ROOT` for code outside them."""
    while module:
        layer = MODULE_LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return ROOT


class LayerClock:
    """Self time, boundary crossings and named counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack = [ROOT]
        self._last = 0.0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: Times each layer was entered.
        self.calls: Counter[str] = Counter()
        #: Calls per wrapped entry point, plus counts the wrappers observe.
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[Any, str, Any]] = []

    def start(self) -> None:
        """Start charging time; the first interval begins now."""
        self._last = self._clock()

    def enter(self, layer: str) -> None:
        now = self._clock()
        self.self_s[self._stack[-1]] += now - self._last
        self._last = now
        self._stack.append(layer)
        self.calls[layer] += 1

    def exit(self) -> None:
        now = self._clock()
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now

    def flush(self) -> None:
        """Charge the time since the last boundary to the layer on top."""
        now = self._clock()
        self.self_s[self._stack[-1]] += now - self._last
        self._last = now

    @property
    def balanced(self) -> bool:
        """True when every enter has been matched by an exit."""
        return self._stack == [ROOT]

    # -- patching ---------------------------------------------------------------
    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        """Install ``replacement`` as ``owner.name`` until :meth:`restore`."""
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def wrap(self, owner: Any, name: str, layer: str) -> None:
        """Charge calls of ``owner.name`` to ``layer`` and count them."""
        original = vars(owner)[name]
        key = f"{getattr(owner, '__name__', owner)}.{name}"
        enter, exit_, counts = self.enter, self.exit, self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                exit_()

        self.patch(owner, name, wrapper)

    def count(self, owner: Any, name: str) -> None:
        """Count calls of ``owner.name`` without crossing a boundary."""
        original = vars(owner)[name]
        key = f"{getattr(owner, '__name__', owner)}.{name}"
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return original(*args, **kwargs)

        self.patch(owner, name, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def instrument(clock: LayerClock) -> list:
    """Patch the layer entry points of ``repro`` to report to ``clock``.

    Returns the list that collects the processes of speculative
    submissions; their outcomes give ``core.speculation_loser_frac``.
    """
    from repro import trace
    from repro.cluster.fabric import SharedFabric
    from repro.core.dplus import DPlusScheduler
    from repro.core.speculation import SpeculativeExecutor
    from repro.experiments import report
    from repro.hdfs.namenode import NameNode
    from repro.metrics import StreamingSummary
    from repro.serving.runtime import ServingRuntime
    from repro.simcluster import SimCluster
    from repro.simulation.core import Environment
    from repro.simulation.events import Process
    from repro.telemetry.scraper import Scraper
    from repro.tuner.picker import AutoModePicker
    from repro.yarn.heartbeat import HeartbeatWheel
    from repro.yarn.hfsp import HFSPScheduler
    from repro.yarn.queues import MultiTenantCapacityScheduler
    from repro.yarn.resourcemanager import ResourceManager
    from repro.yarn.scheduler import CapacityScheduler, SchedulerBase

    enter, exit_, counts = clock.enter, clock.exit, clock.counts

    # Kernel: the loop's own time is whatever no other layer claims.
    run = vars(Environment)["run"]

    def env_run(env: Any, until: Any = None) -> Any:
        before = env.events_processed
        enter("simulation")
        try:
            return run(env, until)
        finally:
            exit_()
            counts["events"] += env.events_processed - before

    clock.patch(Environment, "run", env_run)

    # Each resume belongs to the module of the innermost generator it
    # drives: the frame that actually runs until the next yield.
    resume = vars(Process)["_resume"]
    layer_of_code: dict[Any, str] = {}

    def process_resume(proc: Any, event: Any) -> None:
        gen = proc._generator
        sub = gen.gi_yieldfrom
        while sub is not None and hasattr(sub, "gi_yieldfrom"):
            gen, sub = sub, sub.gi_yieldfrom
        code = gen.gi_code
        layer = layer_of_code.get(code)
        if layer is None:
            layer = layer_of_module(gen.gi_frame.f_globals.get("__name__", ""))
            layer_of_code[code] = layer
        enter(layer)
        try:
            resume(proc, event)
        finally:
            exit_()

    clock.patch(Process, "_resume", process_resume)

    clock.wrap(HeartbeatWheel, "_fire", "yarn.heartbeat")

    # A beat is useful when it granted a container (an AM or a task).
    clock.count(ResourceManager, "next_container_id")
    beat = vars(ResourceManager)["node_heartbeat"]
    granted_key = "ResourceManager.next_container_id"

    def node_heartbeat(rm: Any, node_id: str) -> None:
        before = counts[granted_key]
        counts["ResourceManager.node_heartbeat"] += 1
        enter("yarn")
        try:
            beat(rm, node_id)
        finally:
            exit_()
        if counts[granted_key] != before:
            counts["useful_beats"] += 1

    clock.patch(ResourceManager, "node_heartbeat", node_heartbeat)
    for name in ("allocate", "submit_application", "container_finished",
                 "application_finished", "kill_application"):
        clock.wrap(ResourceManager, name, "yarn")
    for cls in (SchedulerBase, CapacityScheduler, MultiTenantCapacityScheduler,
                HFSPScheduler, DPlusScheduler):
        layer = "core" if cls is DPlusScheduler else "yarn"
        for name in ("on_node_heartbeat", "on_allocate_request"):
            if name in vars(cls):
                clock.wrap(cls, name, layer)

    for name in ("submit", "kill", "set_capacity", "_on_wakeup"):
        clock.wrap(SharedFabric, name, "cluster.fabric")
    for name in ("create_file", "delete", "exists", "get_file", "block_locations"):
        clock.wrap(NameNode, name, "hdfs")
    for name, value in list(vars(ServingRuntime).items()):
        if not name.startswith("_") and callable(value):
            clock.wrap(ServingRuntime, name, "serving")
    clock.wrap(Scraper, "_on_due", "telemetry")
    clock.count(Scraper, "sample")

    decide = vars(AutoModePicker)["decide"]

    def picker_decide(picker: Any, *args: Any, **kwargs: Any) -> Any:
        counts["AutoModePicker.decide"] += 1
        enter("tuner")
        try:
            decision = decide(picker, *args, **kwargs)
        finally:
            exit_()
        counts[f"tuner.{decision.source}"] += 1
        return decision

    clock.patch(AutoModePicker, "decide", picker_decide)
    clock.wrap(AutoModePicker, "observe", "tuner")
    clock.wrap(AutoModePicker, "observe_record", "tuner")

    speculated: list = []
    submit = vars(SpeculativeExecutor)["submit"]

    def speculative_submit(executor: Any, spec: Any) -> Any:
        enter("core")
        try:
            proc = submit(executor, spec)
        finally:
            exit_()
        speculated.append(proc)
        return proc

    clock.patch(SpeculativeExecutor, "submit", speculative_submit)

    clock.wrap(StreamingSummary, "add", "metrics")
    clock.wrap(SimCluster, "__init__", "simcluster")
    for name in ("replay_load", "template_baselines", "build_trace_cluster"):
        clock.wrap(trace, name, "trace")
    clock.wrap(report, "generate_report", "experiments")
    return speculated
