"""Alert rules evaluated over the telemetry ring buffers.

Rules run after every scrape (the scraper's ``on_scrape`` hook) and are
edge-triggered: an alert fires when its condition transitions false→true
and resolves when it transitions back, so a sustained outage produces one
row, not one per scrape. Fired alerts are appended to
:attr:`AlertEngine.alerts` (surfacing in ``LoadReport`` and the CLI) and,
when a tracer is installed, emitted as trace instants so they overlay the
span timeline in Perfetto.

The SLO rule implements Google-SRE-style multi-window burn-rate alerting:
with an error budget of ``1 - SLO_TARGET``, the *burn rate* over a window
is the window's error fraction divided by the budget (1.0 = consuming the
budget exactly as fast as the SLO tolerates). Firing requires the rate to
exceed the threshold over **both** a fast and a slow window — the fast
window gives low detection latency, the slow window keeps one bad scrape
from paging. Counters start at zero, so a window that reaches past the
start of the run uses an exact zero baseline rather than extrapolating.
That reading is only sound while the ring still holds the window's
baseline sample, so :class:`~repro.config.TelemetryConfig` rejects, when
alerts are on, a retention too short to cover ``BURN_SLOW_WINDOW_S``: an
evicted baseline would otherwise read as "before the run" and the slow
window would silently span the whole run.

Each rule reads only what it needs: a window edge is one O(log retention)
bisect (:meth:`RingSeries.value_at_or_before`) and an N-scrape condition
reads the last N samples (:meth:`RingSeries.last_values`), so evaluating
the rules never costs O(retention). Rules decide before they describe: a
check returns the facts of its message, and the engine formats it only
on a firing edge. The burn-rate rule reads its slow window only once the
fast one meets the threshold, and the N-scrape rules stop at a newest
sample that breaks the streak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..config import BURN_SLOW_WINDOW_S
from .scraper import RingSeries, Scraper

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.core import Environment

SEV_WARNING = "warning"
SEV_CRITICAL = "critical"

#: SLO attainment target the burn-rate rule measures the error budget
#: against (budget = 1 - SLO_TARGET).
SLO_TARGET = 0.9


@dataclass
class Alert:
    """One firing of a rule (resolution recorded in place when observed)."""

    rule: str
    severity: str
    at_s: float
    message: str
    value: float
    resolved_at_s: Optional[float] = None

    def to_dict(self, digits: int = 6) -> dict:
        out = {"rule": self.rule, "severity": self.severity,
               "at_s": round(self.at_s, digits),
               "value": round(self.value, digits),
               "message": self.message}
        if self.resolved_at_s is not None:
            out["resolved_at_s"] = round(self.resolved_at_s, digits)
        return out


class Rule:
    """Base: subclasses answer "is the condition true at scrape time t?"."""

    name = "rule"
    severity = SEV_WARNING

    def check(self, t: float, scraper: Scraper
              ) -> tuple[bool, float, tuple[float, ...]]:
        """``(firing, value, facts)``. ``value`` and ``facts`` need only be
        right when ``firing``; ``describe(facts)`` is the alert message."""
        raise NotImplementedError

    def describe(self, facts: tuple[float, ...]) -> str:
        raise NotImplementedError


def _counter_delta(series: Optional[RingSeries], t: float,
                   window_s: float) -> Optional[float]:
    """Increase of a monotonic counter over ``[t - window, t]``.

    No sample at or before ``t - window`` means the window starts before
    the run did, so the baseline is the counter's initial zero. The
    retention rule in :class:`~repro.config.TelemetryConfig` keeps that
    true: the ring never evicts a sample a window edge still needs.
    """
    if series is None or not series.times:
        return None
    now_v = series.value_at_or_before(t)
    if now_v is None:
        return None
    base = series.value_at_or_before(t - window_s)
    return now_v - (base if base is not None else 0.0)


class BurnRateRule(Rule):
    """Error budget burning >= threshold× sustainable over both windows."""

    name = "slo_burn_rate"
    severity = SEV_CRITICAL

    def __init__(self, slo_target: float = SLO_TARGET,
                 fast_window_s: float = 30.0,
                 slow_window_s: float = BURN_SLOW_WINDOW_S,
                 threshold: float = 2.0) -> None:
        if not 0.0 < slo_target < 1.0:
            raise ValueError(f"slo_target must be in (0, 1), got {slo_target}")
        self.budget = 1.0 - slo_target
        self.fast_window_s = fast_window_s
        self.slow_window_s = slow_window_s
        self.threshold = threshold

    def burn_rate(self, t: float, scraper: Scraper, window_s: float) -> float:
        met = _counter_delta(scraper.series("serving_deadline_met"), t, window_s)
        missed = _counter_delta(
            scraper.series("serving_deadline_missed"), t, window_s)
        if met is None or missed is None:
            return 0.0
        total = met + missed
        if total <= 0:
            return 0.0
        return (missed / total) / self.budget

    def check(self, t: float, scraper: Scraper
              ) -> tuple[bool, float, tuple[float, ...]]:
        fast = self.burn_rate(t, scraper, self.fast_window_s)
        if fast < self.threshold:
            return False, fast, ()
        slow = self.burn_rate(t, scraper, self.slow_window_s)
        return slow >= self.threshold, min(fast, slow), (fast, slow)

    def describe(self, facts: tuple[float, ...]) -> str:
        fast, slow = facts
        return (f"SLO error budget burning {fast:.1f}x over "
                f"{self.fast_window_s:.0f}s and {slow:.1f}x over "
                f"{self.slow_window_s:.0f}s (threshold {self.threshold:.1f}x)")


class QueueSaturationRule(Rule):
    """Admission queue at >= ``fraction`` of max_pending for N scrapes."""

    name = "queue_saturation"
    severity = SEV_WARNING

    def __init__(self, max_pending: int, fraction: float = 0.9,
                 samples: int = 3) -> None:
        self.max_pending = max(1, max_pending)
        self.fraction = fraction
        self.samples = max(1, samples)

    def check(self, t: float, scraper: Scraper
              ) -> tuple[bool, float, tuple[float, ...]]:
        series = scraper.series("serving_pending_jobs")
        if series is None or len(series) < self.samples:
            return False, 0.0, ()
        value = series.values[-1] / self.max_pending
        firing = value >= self.fraction and all(
            v / self.max_pending >= self.fraction
            for v in series.last_values(self.samples))
        return firing, value, (value,)

    def describe(self, facts: tuple[float, ...]) -> str:
        (value,) = facts
        return (f"admission queue at {value:.0%} of max_pending="
                f"{self.max_pending} for {self.samples} scrapes")


class HeartbeatStalenessRule(Rule):
    """Any live node silent for > stale_factor × heartbeat interval."""

    name = "heartbeat_staleness"
    severity = SEV_WARNING

    def check(self, t: float, scraper: Scraper
              ) -> tuple[bool, float, tuple[float, ...]]:
        series = scraper.series("nodes_heartbeat_stale")
        if series is None:
            return False, 0.0, ()
        stale = series.last() or 0.0
        return stale > 0, stale, (stale,)

    def describe(self, facts: tuple[float, ...]) -> str:
        (stale,) = facts
        return f"{stale:.0f} node(s) heartbeat-stale"


class UnderReplicationRule(Rule):
    """HDFS under-replicated blocks outstanding for N consecutive scrapes."""

    name = "hdfs_under_replication"
    severity = SEV_WARNING

    def __init__(self, samples: int = 3) -> None:
        self.samples = max(1, samples)

    def check(self, t: float, scraper: Scraper
              ) -> tuple[bool, float, tuple[float, ...]]:
        series = scraper.series("hdfs_under_replicated_blocks")
        if series is None or len(series) < self.samples:
            return False, 0.0, ()
        value = series.values[-1]
        firing = value > 0 and all(
            v > 0 for v in series.last_values(self.samples))
        return firing, value, (value,)

    def describe(self, facts: tuple[float, ...]) -> str:
        (blocks,) = facts
        return (f"{blocks:.0f} under-replicated block(s) for "
                f"{self.samples} scrapes")


class AlertEngine:
    """Evaluates rules on every scrape; edge-triggers alert rows."""

    def __init__(self, env: Environment, scraper: Scraper,
                 rules: list[Rule]) -> None:
        self.env = env
        self.scraper = scraper
        self.rules = rules
        self.alerts: list[Alert] = []
        self._active: dict[str, Alert] = {}
        self.evaluations = 0
        scraper.on_scrape.append(self.evaluate)

    def evaluate(self, t: float) -> None:
        self.evaluations += 1
        for rule in self.rules:
            firing, value, facts = rule.check(t, self.scraper)
            active = self._active.get(rule.name)
            if firing and active is None:
                message = rule.describe(facts)
                alert = Alert(rule.name, rule.severity, t, message, value)
                self.alerts.append(alert)
                self._active[rule.name] = alert
                tracer = self.env.tracer
                if tracer is not None:
                    from ..observe.tracer import CLUSTER
                    tracer.instant(f"alert:{rule.name}", "alert", CLUSTER,
                                   "alerts", severity=rule.severity,
                                   value=round(value, 6), message=message)
            elif not firing and active is not None:
                active.resolved_at_s = t
                del self._active[rule.name]

    def first(self, rule_name: str) -> Optional[Alert]:
        for alert in self.alerts:
            if alert.rule == rule_name:
                return alert
        return None

    def to_rows(self, digits: int = 6) -> list[dict]:
        return [a.to_dict(digits) for a in self.alerts]


@dataclass
class AlertSummary:
    """Aggregate of one engine run (the ``alerts`` report subsection)."""

    fired: int = 0
    by_rule: dict = field(default_factory=dict)

    @classmethod
    def of(cls, engine: AlertEngine) -> "AlertSummary":
        by_rule: dict[str, int] = {}
        for alert in engine.alerts:
            by_rule[alert.rule] = by_rule.get(alert.rule, 0) + 1
        return cls(fired=len(engine.alerts),
                   by_rule={k: by_rule[k] for k in sorted(by_rule)})
