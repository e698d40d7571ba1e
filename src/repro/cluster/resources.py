"""Resource vectors (memory + vcores) and dominant-resource arithmetic.

Mirrors YARN's ``Resource`` record. The D+ scheduler sorts nodes by available
*dominant* resource — the resource type with the highest cluster-wide usage
ratio (defined over the whole cluster, unlike per-user DRF; see paper §III-A).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResourceVector:
    """An amount of schedulable resource: megabytes of memory and vcores."""

    memory_mb: int
    vcores: int

    def __post_init__(self) -> None:
        if self.memory_mb < 0 or self.vcores < 0:
            raise ValueError(f"resources cannot be negative: {self}")

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.memory_mb + other.memory_mb, self.vcores + other.vcores)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.memory_mb - other.memory_mb, self.vcores - other.vcores)

    def __mul__(self, k: int) -> "ResourceVector":
        return ResourceVector(self.memory_mb * k, self.vcores * k)

    __rmul__ = __mul__

    # -- comparisons ----------------------------------------------------------
    def fits_in(self, other: "ResourceVector") -> bool:
        """True when this demand can be satisfied from ``other``."""
        return self.memory_mb <= other.memory_mb and self.vcores <= other.vcores

    # -- dominant resource ------------------------------------------------------
    def usage_ratios(self, total: "ResourceVector") -> tuple[float, float]:
        """(memory ratio, vcore ratio) of this amount against ``total``."""
        mem = self.memory_mb / total.memory_mb if total.memory_mb else 0.0
        cpu = self.vcores / total.vcores if total.vcores else 0.0
        return mem, cpu

    def dominant_share(self, total: "ResourceVector") -> float:
        return max(self.usage_ratios(total))

    def component(self, which: str) -> int:
        if which == "memory":
            return self.memory_mb
        if which == "vcores":
            return self.vcores
        raise ValueError(f"unknown resource component {which!r}")

    @staticmethod
    def zero() -> "ResourceVector":
        return ResourceVector(0, 0)

    def __str__(self) -> str:
        return f"<mem {self.memory_mb} MB, {self.vcores} vcores>"


def dominant_resource(used: ResourceVector, total: ResourceVector) -> str:
    """Which resource type has the highest cluster-wide usage ratio.

    Paper §III-A: "Dominant resource is a kind of resource such as CPU or
    memory that has the highest usage ratio in the cluster."
    """
    mem_ratio, cpu_ratio = used.usage_ratios(total)
    return "memory" if mem_ratio >= cpu_ratio else "vcores"
