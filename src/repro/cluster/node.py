"""Physical machines: CPU pool, disk device, and node identity.

A node's cores and its disk are each one :class:`FairShareDevice` — a
processor-sharing queue, not a network-style fabric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .fabric import FairShareDevice, Flow
from .resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.core import Environment


class DiskDevice:
    """A node's disk with sequential read/write rates and a seek penalty.

    Work is normalized to *device-seconds*: an op of ``mb`` megabytes at rate
    ``r`` MB/s costs ``mb / r`` device-seconds and concurrent ops
    processor-share the device. On top of fair sharing, a spinning disk's
    *aggregate* throughput collapses under concurrent streams (head seeks
    between them): with ``n`` active ops the device capacity is scaled by
    ``1 / (1 + seek_penalty * (n - 1))``. This is the mechanism that makes
    the stock scheduler's node-packing genuinely expensive — eight packed
    readers are far worse than 8x one reader.
    """

    def __init__(self, env: "Environment", read_mb_s: float, write_mb_s: float,
                 name: str = "disk", seek_penalty: float = 0.3) -> None:
        if read_mb_s <= 0 or write_mb_s <= 0:
            raise ValueError("disk rates must be positive")
        if seek_penalty < 0:
            raise ValueError("seek_penalty cannot be negative")
        self.read_mb_s = read_mb_s
        self.write_mb_s = write_mb_s
        self.seek_penalty = seek_penalty
        #: Gray-failure knob: >1 slows every op (sick disk, throttled volume).
        self.slowdown = 1.0
        self._device = FairShareDevice(env, capacity=1.0, name=name)

    def _capacity_for(self, n_ops: int) -> float:
        base = 1.0
        if n_ops > 1:
            base = 1.0 / (1.0 + self.seek_penalty * (n_ops - 1))
        return base / self.slowdown

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore, factor=1.0) the device; in-flight ops adjust."""
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.slowdown = float(factor)
        n = max(1, self._device.active_count)
        self._device.set_capacity(self._capacity_for(n))

    def fail_active(self) -> int:
        """Kill every in-flight op (the machine died under them).

        Waiters see :class:`~repro.cluster.fabric.FlowKilled` through each
        flow's ``done`` event. Returns the number of flows killed.
        """
        victims = self._device.active_flows
        for flow in victims:
            self._device.kill(flow)
        return len(victims)

    def _submit(self, device_seconds: float, label: str) -> Flow:
        # The capacity for the op count *with* this op joins the submit's
        # own reallocation.
        capacity = self._capacity_for(self._device.active_count + 1)
        flow = self._device.execute(device_seconds, cap=1.0, label=label,
                                    capacity=capacity)
        flow.done.callbacks.append(lambda _ev: self._op_finished())
        return flow

    def _op_finished(self) -> None:
        # Runs from the op's ``done`` callback, one event after the
        # completion (or kill) that retired the op.
        n = max(1, self._device.active_count)
        self._device.set_capacity(self._capacity_for(n))

    def read(self, mb: float, label: str = "read") -> Flow:
        return self._submit(mb / self.read_mb_s, label)

    def write(self, mb: float, label: str = "write") -> Flow:
        return self._submit(mb / self.write_mb_s, label)

    def kill(self, flow: Flow) -> None:
        self._device.kill(flow)

    @property
    def active_ops(self) -> int:
        return self._device.active_count


class CpuPool:
    """A node's cores as a fair-shared pool.

    Capacity equals the number of cores; every task is capped at one core,
    so ``n`` runnable tasks on ``c`` cores each progress at ``min(1, c/n)``.
    """

    def __init__(self, env: "Environment", cores: int, name: str = "cpu") -> None:
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.cores = cores
        #: Gray-failure knob: >1 slows every task (see :meth:`set_slowdown`).
        self.slowdown = 1.0
        self._device = FairShareDevice(env, capacity=float(cores), name=name)

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore, factor=1.0) the cores; running tasks adjust.

        A noisy neighbour or a throttled VM: the pool serves ``cores /
        factor`` cores' worth of work.
        """
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.slowdown = float(factor)
        self._device.set_capacity(self.cores / factor)

    def compute(self, cpu_seconds: float, label: str = "compute") -> Flow:
        return self._device.execute(cpu_seconds, cap=1.0, label=label)

    def kill(self, flow: Flow) -> None:
        self._device.kill(flow)

    @property
    def running(self) -> int:
        return self._device.active_count

    def utilization(self) -> float:
        return self._device.utilization()


class Node:
    """A cluster machine: identity, capacity spec, and its local devices."""

    def __init__(self, env: "Environment", node_id: str, rack: str,
                 cores: int, memory_mb: int,
                 disk_read_mb_s: float = 100.0, disk_write_mb_s: float = 80.0,
                 disk_seek_penalty: float = 0.3) -> None:
        self.env = env
        self.node_id = node_id
        self.rack = rack
        self.capability = ResourceVector(memory_mb=memory_mb, vcores=cores)
        self.cpu = CpuPool(env, cores, name=f"{node_id}.cpu")
        self.disk = DiskDevice(env, disk_read_mb_s, disk_write_mb_s,
                               name=f"{node_id}.disk", seek_penalty=disk_seek_penalty)
        #: Activity observer (the cluster's index of busy nodes): called
        #: with ``(node, True)`` when a device gets work while both were
        #: idle and ``(node, False)`` once both are idle again.
        self.on_busy: Optional[Callable[["Node", bool], None]] = None
        self._busy_devices = 0
        self.cpu._device.on_busy = self._device_busy
        self.disk._device.on_busy = self._device_busy

    def _device_busy(self, busy: bool) -> None:
        self._busy_devices += 1 if busy else -1
        if self.on_busy is not None and self._busy_devices == int(busy):
            self.on_busy(self, busy)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} rack={self.rack} {self.capability}>"

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.node_id == self.node_id
