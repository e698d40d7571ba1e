"""Critical-path attribution over a completed job's span graph.

The analyzer answers the MRapid question — *where does a short job's time
go?* — by partitioning the whole ``[submit, finish]`` interval into
contiguous segments, each charged to one overhead class:

==================  ====================================================
class               charged spans
==================  ====================================================
``heartbeat_wait``  RM/NM/AM heartbeat rounds, allocation RPCs, slot and
                    resource-grant waits (cat ``wait``/``heartbeat``/
                    ``alloc``)
``container_launch``  NM container/JVM launch delays (cat ``launch``)
``am_startup``      client submit, AM init, task setup/commit bookkeeping
                    (cat ``submit``/``init``/``setup``/``commit``/``rpc``)
``read_compute``    useful work: input read + user map/reduce functions
``spill_merge``     map-side spills and merge passes
``shuffle``         reduce-side fetch
``write``           output write + replication
``other``           anything unclassified, and uninstrumented gaps
==================  ====================================================

The method is an elementary-interval sweep over the span set: at every
instant of the job window, the instant is charged to the highest-precedence
class with a span active there. Precedence encodes what is *binding* — if
any task is doing useful work the job is compute-bound at that instant, no
matter how many heartbeat timers are also ticking; only when nothing
productive overlaps does the instant fall through to launch, then AM
bookkeeping, then pure allocation/heartbeat waiting. (A naive backward walk
over span *ends* gets this wrong: the AM's 1 s heartbeat spans tile the
whole job and would swallow concurrent task phases.) Segments are maximal
and non-overlapping, so their durations sum to the job's elapsed time
exactly — the breakdown's fractions always add to ~1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .tracer import SYNC

if TYPE_CHECKING:  # pragma: no cover
    from .tracer import Span, Tracer

#: Attribution classes, in display order. Fractions over these sum to ~1.
OVERHEAD_CLASSES = (
    "heartbeat_wait",
    "container_launch",
    "am_startup",
    "read_compute",
    "spill_merge",
    "shuffle",
    "write",
    "other",
)

#: Classes that are *useful work* rather than framework overhead; the
#: paper's "overhead fraction" is 1 minus their share.
WORK_CLASSES = ("read_compute",)

#: Sweep precedence: productive activity dominates framework bookkeeping,
#: which dominates pure waiting. Index = priority (lower wins).
PRECEDENCE = (
    "read_compute",
    "spill_merge",
    "shuffle",
    "write",
    "container_launch",
    "am_startup",
    "heartbeat_wait",
    "other",
)

_CAT_CLASS = {
    "wait": "heartbeat_wait",
    "heartbeat": "heartbeat_wait",
    "alloc": "heartbeat_wait",
    "launch": "container_launch",
    "submit": "am_startup",
    "init": "am_startup",
    "setup": "am_startup",
    "commit": "am_startup",
    "rpc": "am_startup",
    "read": "read_compute",
    "compute": "read_compute",
    "spill": "spill_merge",
    "merge": "spill_merge",
    "shuffle": "shuffle",
    "write": "write",
}

_EPS = 1e-9


def classify_span(span: "Span") -> str:
    """Map a span to its overhead class via category, then name heuristics."""
    cls = _CAT_CLASS.get(span.cat)
    if cls is not None:
        return cls
    name = span.name.lower()
    for token, cls in (("spill", "spill_merge"), ("merge", "spill_merge"),
                       ("shuffle", "shuffle"), ("replica", "write"),
                       ("write", "write"), ("read", "read_compute")):
        if token in name:
            return cls
    return "other"


@dataclass
class Segment:
    """One attributed slice of the critical path."""

    start: float
    end: float
    cls: str
    name: str = ""
    lane: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end, "class": self.cls,
                "name": self.name, "lane": self.lane}


@dataclass
class CriticalPathReport:
    """The attributed partition of ``[t0, t1]``."""

    t0: float
    t1: float
    segments: list[Segment] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.t1 - self.t0

    @property
    def totals(self) -> dict[str, float]:
        out = {cls: 0.0 for cls in OVERHEAD_CLASSES}
        for seg in self.segments:
            out[seg.cls] = out.get(seg.cls, 0.0) + seg.duration
        return out

    @property
    def fractions(self) -> dict[str, float]:
        elapsed = self.elapsed
        if elapsed <= 0:
            return {cls: 0.0 for cls in OVERHEAD_CLASSES}
        return {cls: total / elapsed for cls, total in self.totals.items()}

    @property
    def non_compute_fraction(self) -> float:
        """Share of elapsed time that was *not* useful work — the paper's
        framework-overhead fraction (up to ~88% for stock short jobs)."""
        fracs = self.fractions
        return 1.0 - sum(fracs[cls] for cls in WORK_CLASSES)

    def to_dict(self) -> dict:
        return {
            "t0": self.t0,
            "t1": self.t1,
            "elapsed": self.elapsed,
            "totals": self.totals,
            "fractions": self.fractions,
            "non_compute_fraction": self.non_compute_fraction,
            "segments": [seg.to_dict() for seg in self.segments],
        }


def _content_key(span: "Span") -> tuple:
    """A span's position among equals, from what it recorded — never from
    ``sid``, the order the tracer happened to record it in. Spans equal
    in this key attribute a segment identically."""
    return (span.start, span.node, span.lane, span.name)


def critical_path(tracer: "Tracer", t0: float, t1: float) -> CriticalPathReport:
    """Partition ``[t0, t1]`` into attributed segments via the sweep.

    Only closed *sync* spans participate (async fabric flows overlap freely
    and are already summarized by the task-phase spans that wait on them);
    job root spans (cat ``job``) are excluded so they don't swallow the
    whole window.
    """
    report = CriticalPathReport(t0, t1)
    if t1 <= t0 + _EPS:
        return report
    spans = [s for s in tracer.closed_spans()
             if s.flavor == SYNC and s.cat != "job"
             and s.end > t0 + _EPS and s.start < t1 - _EPS]
    rank = {cls: i for i, cls in enumerate(PRECEDENCE)}

    # Elementary intervals between consecutive span boundaries (clipped to
    # the window); within one interval the active set is constant.
    cuts = sorted({t0, t1}
                  | {min(max(s.start, t0), t1) for s in spans}
                  | {min(max(s.end, t0), t1) for s in spans})
    starts = sorted(spans, key=lambda s: s.start)
    ends = sorted(spans, key=lambda s: s.end)
    active: dict[int, "Span"] = {}
    si = ei = 0

    segments: list[Segment] = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo <= _EPS:
            continue
        while si < len(starts) and starts[si].start <= lo + _EPS:
            active[starts[si].sid] = starts[si]
            si += 1
        while ei < len(ends) and ends[ei].end <= lo + _EPS:
            active.pop(ends[ei].sid, None)
            ei += 1
        best: Optional["Span"] = None
        best_rank = len(PRECEDENCE)
        for span in active.values():
            r = rank[classify_span(span)]
            if r < best_rank or (r == best_rank and best is not None
                                 and _content_key(span) > _content_key(best)):
                best, best_rank = span, r
        if best is None:
            cls, name, lane = "other", "(uninstrumented)", ""
        else:
            cls, name, lane = PRECEDENCE[best_rank], best.name, best.lane
        prev = segments[-1] if segments else None
        if prev is not None and prev.cls == cls and prev.name == name \
                and prev.lane == lane and abs(prev.end - lo) <= _EPS:
            prev.end = hi
        else:
            segments.append(Segment(lo, hi, cls, name, lane))
    report.segments = segments
    return report


def analyze_job(tracer: "Tracer", app_id: Optional[str] = None) -> CriticalPathReport:
    """Critical-path report for one completed job.

    The window is the job's root span (cat ``job``, emitted by the client /
    submission framework). With several jobs in the trace, pass ``app_id``
    (matched against the root span's ``args['app_id']``); the default is
    the only — or first — job root.
    """
    roots = [s for s in tracer.closed_spans() if s.cat == "job"]
    if app_id is not None:
        roots = [s for s in roots if s.args.get("app_id") == app_id]
    if not roots:
        raise ValueError(f"no completed job root span found (app_id={app_id!r})")
    root = min(roots, key=lambda s: (s.start, s.sid))
    return critical_path(tracer, root.start, root.end)
