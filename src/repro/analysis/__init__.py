"""Domain-specific static analysis for the MRapid reproduction.

``repro.analysis`` is an AST-based checker framework that enforces the
invariants the simulator's correctness rests on but no off-the-shelf
linter can see. Every rule runs once over a project-wide symbol table
and call graph (:mod:`repro.analysis.callgraph`); the MR1xx rules read
one file at a time, the MR2xx rules follow values and calls across
functions, some through a forward taint engine
(:mod:`repro.analysis.dataflow`):

* **MR102 determinism** — no wall-clock time, no unseeded module-level
  ``random``, no ``id()`` as a sort/dict key in model code.
* **MR103 tracer-guard** — every span/metrics call in a hot path must be
  guarded by a ``tracer is not None`` check ("zero overhead when
  disabled").
* **MR104 float-time-equality** — simulated-time expressions must not be
  compared with ``==``/``!=``.
* **MR105 cross-run state** — no module-level mutable counters or caches
  that survive between :class:`~repro.simulation.core.Environment`
  instances.
* **MR201 scheduling-determinism** — hash-ordered collections and
  process-dependent scalars flowing into scheduling decisions, in the
  same function or through helper calls.
* **MR202 kernel-protocol** — simulation processes must yield real
  :class:`~repro.simulation.events.Event` objects, and kernel callbacks
  must never re-enter ``Environment.step``/``run``, directly or through
  helpers.
* **MR203 resource-typestate** — acquire/release pairs (tracer spans,
  fabric flows, wheel memberships, the kernel sampler slot, container
  grants) leaked on early-return or error paths.

Run it as ``python -m repro.analysis [paths...]`` or ``repro lint``.
Findings are reported as ``file:line:col CODE message``; a checked-in
baseline (``lint_baseline.json``) keeps existing, deliberately accepted
debt from failing CI while any *new* violation does.

``repro lint --sanitize`` pairs the static rules with a dynamic
determinism sanitizer: the same small scenario runs twice in subprocesses
under different ``PYTHONHASHSEED`` values and the event-order/metrics
digests are diffed, turning order-dependent iteration into a reproducible
failure. ``repro lint --sanitize-races`` permutes kernel dispatch order
among events sharing a (timestamp, priority) class and requires all
observable metrics to be tie-order independent. See
``docs/static_analysis.md`` for the rule catalog.
"""

from __future__ import annotations

# The rule modules register themselves on import.
from . import (  # noqa: F401
    rules_determinism,
    rules_kernel,
    rules_state,
    rules_taint,
    rules_time,
    rules_tracer,
    rules_typestate,
)
from .baseline import Baseline
from .callgraph import Project, build_project
from .findings import Finding
from .registry import ModuleSource, Rule, all_rules, rule_catalog
from .runner import AnalysisResult, analyze_paths, main

__all__ = [
    "AnalysisResult",
    "Baseline",
    "Finding",
    "ModuleSource",
    "Project",
    "Rule",
    "all_rules",
    "analyze_paths",
    "build_project",
    "main",
    "rule_catalog",
]
