"""Streaming workload metrics and the per-signature service-time learner.

* :class:`SignatureStats` is the one per-signature service-time learner:
  count, mean and EWMA of a job signature's successful runs, shared by
  HFSP's size training, serving admission and the ``auto`` tuner.

* :class:`StreamingSummary` / :class:`StreamingPercentile` accumulate
  per-job latency statistics in **O(1) memory** for the heavy-traffic
  replay harness (:func:`repro.trace.replay_load`). A thousand-job replay
  must not retain a thousand response times just to report a p99, so
  quantiles use the P² algorithm (Jain & Chlamtac 1985): five markers per
  tracked quantile, updated per observation with parabolic interpolation.
  The estimator is deterministic — same observation sequence, bit-identical
  state — which the metamorphic replay tests rely on.

Cluster utilization, the paper's imbalance index among it, is sampled by
:mod:`repro.telemetry`, not here.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


# -- streaming percentiles (P², bounded memory) --------------------------------

def exact_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over a full sample (numpy-free reference).

    This is the exact sorted-list definition the streaming estimator is
    differentially tested against; small replays can afford it.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[k]


class StreamingPercentile:
    """One quantile tracked by the P² algorithm in constant memory.

    Holds the classic five markers (min, two intermediates, the target
    quantile, max). Until five observations arrive the estimate is exact
    (sorted buffer); afterwards markers move by at most one position per
    observation, adjusted with piecewise-parabolic (P²) interpolation.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 100.0:
            raise ValueError(f"quantile must be in (0, 100), got {q}")
        self.q = q
        p = q / 100.0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def add(self, x: float) -> None:
        heights = self._heights
        if len(heights) < 5:
            heights.append(x)
            heights.sort()
            return
        positions = self._positions
        # Locate the cell containing x and clamp the extreme markers.
        if x < heights[0]:
            heights[0] = x
            cell = 0
        elif x >= heights[4]:
            heights[4] = x
            cell = 3
        else:
            cell = 0
            while cell < 3 and x >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers by at most one position each.
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if ((delta >= 1.0 and positions[i + 1] - positions[i] > 1.0)
                    or (delta <= -1.0 and positions[i - 1] - positions[i] < -1.0)):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (pos[j] - pos[i])

    @property
    def value(self) -> float:
        """Current estimate of the tracked quantile (exact below 5 samples)."""
        heights = self._heights
        if not heights:
            return 0.0
        if len(heights) < 5:
            return exact_percentile(heights, self.q)
        return heights[2]


class StreamingSummary:
    """Count/mean/min/max plus p50/p95/p99 in bounded memory.

    The replay harness feeds one of these per metric (sojourn, slowdown,
    queue depth); nothing here grows with the number of jobs.
    """

    __slots__ = ("count", "_sum", "minimum", "maximum", "_quantiles")

    QUANTILES = (50.0, 95.0, 99.0)

    def __init__(self) -> None:
        self.count = 0
        self._sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._quantiles = {q: StreamingPercentile(q) for q in self.QUANTILES}

    def add(self, x: float) -> None:
        self.count += 1
        self._sum += x
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x
        for tracker in self._quantiles.values():
            tracker.add(x)

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        tracker = self._quantiles.get(q)
        if tracker is None:
            raise KeyError(f"quantile {q} not tracked (have {list(self._quantiles)})")
        return tracker.value

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def to_dict(self, digits: int = 6) -> dict[str, float]:
        """JSON-ready snapshot, rounded so serialized reports are stable."""
        if not self.count:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "mean": round(self.mean, digits),
            "min": round(self.minimum, digits),
            "max": round(self.maximum, digits),
            "p50": round(self.p50, digits),
            "p95": round(self.p95, digits),
            "p99": round(self.p99, digits),
        }

    def __str__(self) -> str:
        if not self.count:
            return "n=0"
        return (f"n={self.count} mean={self.mean:.2f} p50={self.p50:.2f} "
                f"p95={self.p95:.2f} p99={self.p99:.2f} max={self.maximum:.2f}")


#: Weight of a new sample in every per-signature service-time EWMA.
EWMA_ALPHA = 0.4


class SignatureStats:
    """Count, mean and EWMA of one job signature's service times.

    Fed only with *successful* runs: a killed or failed run carries no
    usable service time. The first sample seeds the EWMA (``None`` until
    then); later samples fold in with weight :data:`EWMA_ALPHA`, so on a
    deterministic cluster repeated runs leave the EWMA equal to the truth.
    """

    __slots__ = ("count", "total_s", "ewma")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.ewma: Optional[float] = None

    def observe(self, service_s: float) -> None:
        if service_s < 0:
            raise ValueError("service time cannot be negative")
        self.count += 1
        self.total_s += service_s
        self.ewma = (service_s if self.ewma is None else
                     EWMA_ALPHA * service_s + (1 - EWMA_ALPHA) * self.ewma)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


class StreamingRatio:
    """O(1) hit-ratio accumulator (e.g. SLO attainment: deadlines met/total).

    ``fraction`` is 1.0 while empty — "no latency job has missed yet" — so
    control loops keyed off an attainment floor stay calm until there is
    evidence of trouble.
    """

    __slots__ = ("hits", "total")

    def __init__(self) -> None:
        self.hits = 0
        self.total = 0

    def add(self, hit: bool) -> None:
        self.total += 1
        if hit:
            self.hits += 1

    @property
    def fraction(self) -> float:
        return self.hits / self.total if self.total else 1.0

    def to_dict(self, digits: int = 6) -> dict[str, float]:
        return {"hits": self.hits, "total": self.total,
                "fraction": round(self.fraction, digits)}

    def __str__(self) -> str:
        return f"{self.hits}/{self.total} ({self.fraction:.1%})"
