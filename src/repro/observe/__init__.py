"""``repro.observe`` — distributed tracing and job profiling.

Not to be confused with :mod:`repro.trace` (workload-*trace* replay: bursty
job arrival streams). This package records *execution* traces: causal spans
with parent links emitted by the simulation kernel, YARN, the AMs, the task
bodies, the I/O fabric, and the fault injector, plus telemetry
counters/histograms in :attr:`Tracer.metrics`. On top of the raw spans sit

* :func:`to_trace_events` — a Chrome trace-event / Perfetto JSON exporter
  (open the file in https://ui.perfetto.dev);
* :func:`critical_path` / :func:`analyze_job` — sweep the span graph of a
  completed job and attribute every second of end-to-end latency to one of
  the paper's overhead classes (useful work takes precedence over waits);
* :func:`run_profiled` — run one job traced and return a
  :class:`ProfileReport` (breakdown + Gantt + Perfetto export), the engine
  behind ``python -m repro profile``.

Tracing is strictly opt-in: ``Environment.tracer`` is ``None`` by default
and every instrumentation hook is a single ``is not None`` check, so the
figure/bench paths are byte-identical with the subsystem present.
"""

from .critical_path import (
    OVERHEAD_CLASSES,
    CriticalPathReport,
    Segment,
    analyze_job,
    critical_path,
)
from .export import to_trace_events, validate_trace_events
from .profile import ProfileReport, run_profiled
from .tracer import Instant, Span, Tracer, install_tracer

__all__ = [
    "OVERHEAD_CLASSES",
    "CriticalPathReport",
    "Instant",
    "ProfileReport",
    "Segment",
    "Span",
    "Tracer",
    "analyze_job",
    "critical_path",
    "install_tracer",
    "run_profiled",
    "to_trace_events",
    "validate_trace_events",
]
