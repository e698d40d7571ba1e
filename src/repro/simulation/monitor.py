"""Timestamped marks for simulations.

Model components record one-off marks (e.g. "map 3 finished") in an
:class:`EventLog` without coupling model code to any output format.
Periodic time series are :mod:`repro.telemetry`'s job.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, MutableSequence, Optional


@dataclass
class Mark:
    time: float
    label: str
    data: dict[str, Any] = field(default_factory=dict)


class EventLog:
    """Timestamped marks emitted by model components during a run."""

    def __init__(self) -> None:
        self.marks: MutableSequence[Mark] = []

    def mark(self, time: float, label: str, **data: Any) -> None:
        self.marks.append(Mark(time, label, data))

    def bound(self, limit: int) -> None:
        """Cap retention at the most recent ``limit`` marks (ring buffer).

        One-shot figure runs keep every mark for post-run inspection; a
        long-lived replay cluster would otherwise accumulate a few marks
        per job forever. Idempotent; re-bounding keeps the newest marks.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.marks = deque(self.marks, maxlen=limit)

    def filter(self, label: str) -> list[Mark]:
        return [m for m in self.marks if m.label == label]

    def first(self, label: str) -> Optional[Mark]:
        for m in self.marks:
            if m.label == label:
                return m
        return None

    def last(self, label: str) -> Optional[Mark]:
        for m in reversed(self.marks):
            if m.label == label:
                return m
        return None

    def span(self, start_label: str, end_label: str) -> Optional[float]:
        """Elapsed time between the first ``start`` and last ``end`` mark."""
        start = self.first(start_label)
        end = self.last(end_label)
        if start is None or end is None:
            return None
        return end.time - start.time
