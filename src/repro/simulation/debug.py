"""Invariant checking for simulated clusters.

Attach an :class:`InvariantChecker` to a cluster before running and call
``assert_clean()`` after: every event pop re-verifies the physical
invariants (no link or device over-allocation, no flow over its cap, no
negative work or accounting, no scheduling onto dead nodes). Tests wrap
whole scenarios with it so any future model change that silently breaks
conservation fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster

_TOL = 1e-6


@dataclass
class Violation:
    time: float
    what: str

    def __str__(self) -> str:
        return f"t={self.time:.3f}: {self.what}"


class InvariantChecker:
    """Event-granular physical-invariant verification for a SimCluster."""

    def __init__(self, cluster: "SimCluster", every_n_events: int = 1) -> None:
        if every_n_events < 1:
            raise ValueError("every_n_events must be >= 1")
        self.cluster = cluster
        self.every_n_events = every_n_events
        self.violations: list[Violation] = []
        self._counter = 0
        self._network = cluster.network.fabric
        #: Every datanode's CPU and disk device.
        self._devices = [device for node in cluster.datanodes
                         for device in (node.cpu._device, node.disk._device)]
        cluster.env.tracers.append(self._on_event)

    # -- checks -----------------------------------------------------------------
    def _on_event(self, time: float, _event) -> None:
        self._counter += 1
        if self._counter % self.every_n_events:
            return
        self._check_fabrics(time)
        self._check_rm(time)

    def _check_fabrics(self, time: float) -> None:
        fabric = self._network
        for link in fabric.links:
            self._check_load(time, f"link {link!r}",
                             [f for f in fabric.active_flows if link in f.path],
                             fabric.capacity(link))
        self._check_flows(time, fabric.active_flows)
        for device in self._devices:
            flows = device.active_flows
            self._check_load(time, f"device {device.name!r}", flows,
                             device.capacity)
            self._check_flows(time, flows)

    def _check_load(self, time: float, what: str, flows, capacity: float) -> None:
        used = sum(f.rate for f in flows)
        if used > capacity * (1 + _TOL):
            self.violations.append(Violation(
                time, f"{what} over-allocated: {used:.4f} > {capacity:.4f}"))

    def _check_flows(self, time: float, flows) -> None:
        for flow in flows:
            if flow.remaining < -_TOL:
                self.violations.append(Violation(
                    time, f"flow {flow.label!r} negative remaining work"))
            if flow.cap is not None and flow.rate > flow.cap * (1 + _TOL):
                self.violations.append(Violation(
                    time, f"flow {flow.label!r} exceeds its cap"))

    def _check_rm(self, time: float) -> None:
        for state in self.cluster.rm.nodes.values():
            if state.used_memory_mb < 0 or state.used_vcores < 0:
                self.violations.append(Violation(
                    time, f"node {state.node_id} negative accounting "
                          f"({state.used_memory_mb} MB / {state.used_vcores} vc)"))
            if state.used_memory_mb > state.capability.memory_mb:
                self.violations.append(Violation(
                    time, f"node {state.node_id} memory over-committed: "
                          f"{state.used_memory_mb} > {state.capability.memory_mb}"))
        for nm in self.cluster.node_managers:
            # Kill interrupts deliver within the failure instant; only a
            # *later* timestamp with containers still listed is a leak.
            if nm.failed and nm.running and time > nm.failed_at + _TOL:
                self.violations.append(Violation(
                    time, f"dead node {nm.node_id} still lists running containers"))

    # -- reporting -----------------------------------------------------------------
    def assert_clean(self, max_report: int = 5) -> None:
        if self.violations:
            shown = "\n".join(str(v) for v in self.violations[:max_report])
            raise AssertionError(
                f"{len(self.violations)} invariant violations; first "
                f"{min(max_report, len(self.violations))}:\n{shown}")

    def detach(self) -> None:
        try:
            self.cluster.env.tracers.remove(self._on_event)
        except ValueError:
            pass
