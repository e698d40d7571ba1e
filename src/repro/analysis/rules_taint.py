"""MR201: hash-ordered and process-dependent values in scheduling decisions.

Set order depends on ``PYTHONHASHSEED`` and insertion history, so a
scheduler that iterates a set grants containers, picks nodes or
allocates flows in a different order on every run. The set may be built
in the same function or hide behind any number of helper calls:

    def _candidates(self):
        return set(self.nodes) - self.busy      # unordered

    def assign(self):
        for node in self._candidates():          # hash-ordered iteration
            ...

MR201 runs the :mod:`repro.analysis.dataflow` taint engine over the
whole-program call graph and reports scheduling-scope sinks (iterations,
sort keys, branch decisions) reached by an ``ORDER``/``VALUE`` source,
within one function or through call/return edges. Wrap the iteration in
``sorted(...)``, rebind the name as ``x = sorted(x)``, or key the
collection on a sequence number (see ``SharedFabric``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .findings import Finding
from .registry import SCHEDULING_SCOPE, Rule, register, unparse

if TYPE_CHECKING:  # pragma: no cover
    from .callgraph import Project


@register
class SchedulingTaintRule(Rule):
    code = "MR201"
    name = "scheduling-determinism"
    rationale = (
        "Hash-ordered collections and process-dependent scalars (id/hash/"
        "global random) must not flow into scheduling or placement "
        "decisions, within one function or through helper calls."
    )

    def check(self, project: "Project") -> Iterator[Finding]:
        from .dataflow import compute_summaries, iter_sinks

        summaries = compute_summaries(project)
        seen: set[tuple[str, int, str]] = set()
        for info, sink in iter_sinks(project, summaries, SCHEDULING_SCOPE):
            line = getattr(sink.node, "lineno", 1)
            key = (info.rel, line, sink.what)
            if key in seen:
                continue
            seen.add(key)
            source = sink.fact.desc or "an unordered source"
            via = f" via {sink.fact.via}()" if sink.fact.via else ""
            if sink.what == "iteration":
                message = (
                    f"{info.name!r} iterates `{unparse(sink.node)}`, whose "
                    f"order is hash-dependent ({source}{via}) — sort it or "
                    f"key on a sequence number")
            elif sink.what == "sort-key":
                message = (
                    f"{info.name!r} sorts with a process-dependent key "
                    f"({source}{via}) — not stable across runs")
            else:
                message = (
                    f"{info.name!r} branches on a process-dependent value "
                    f"({source}{via}) — the decision varies across runs")
            yield self.finding(info.rel, sink.node, message)
