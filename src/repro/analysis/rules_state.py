"""MR105: module-level mutable state that survives between runs.

Every figure data point builds a fresh :class:`Environment`, and the
parallel sweep asserts serial and parallel output are byte-identical —
which only holds if *nothing* leaks from one run into the next inside a
process. Module-level counters (``itertools.count``), caches (``{}``,
``[]``, ``set()``) and ``global``-rebound knobs all survive between
``Environment`` instances: the first run in a process sees different
state than the tenth (this exact class of bug — process-global YARN id
counters — once made E5 results depend on test execution order).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .findings import Finding
from .registry import ModuleSource, Rule, attribute_chain, register, unparse

if TYPE_CHECKING:  # pragma: no cover
    from .callgraph import Project

#: Call targets that build a fresh mutable object (module scope = cache).
MUTABLE_FACTORIES = frozenset({
    "count", "defaultdict", "deque", "OrderedDict", "Counter",
    "list", "dict", "set",
})

#: Scope: the linter skips itself — ``repro.analysis`` populates an
#: import-time rule registry that is never mutated per-run.
EXEMPT = ("analysis/",)


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        # Non-empty literals are lookup tables (constants by convention);
        # *empty* literals at module scope only exist to accumulate state.
        if isinstance(value, ast.List):
            return not value.elts
        if isinstance(value, ast.Set):
            return not value.elts
        return not value.keys
    if isinstance(value, ast.Call):
        chain = attribute_chain(value.func)
        if chain and chain[-1] in MUTABLE_FACTORIES:
            # ``dict(...)``/``list(...)`` with arguments builds a constant
            # table, same as a non-empty literal; bare calls build caches.
            if chain[-1] in ("list", "dict", "set") and (value.args or value.keywords):
                return False
            return True
    return False


@register
class CrossRunStateRule(Rule):
    code = "MR105"
    name = "cross-run-state"
    rationale = (
        "Module-level mutable counters/caches and global-rebound names "
        "survive between Environment instances, so the Nth run in a "
        "process differs from the first. Hold per-run state on an object "
        "whose lifetime matches the run."
    )

    def check(self, project: "Project") -> Iterator[Finding]:
        for module in project.modules:
            if not module.in_scope(EXEMPT):
                yield from self._check_module_level(module)
                yield from self._check_globals(module)

    def _check_module_level(self, module: ModuleSource) -> Iterator[Finding]:
        for stmt in module.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_value(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name) or target.id == "__all__":
                    continue
                yield self.finding(
                    module.rel, stmt,
                    f"module-level mutable state `{target.id} = "
                    f"{unparse(value)}` survives between Environment "
                    f"instances — make it per-run (instance attribute or "
                    f"factory argument)")

    def _check_globals(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Global):
                names = ", ".join(node.names)
                yield self.finding(
                    module.rel, node,
                    f"`global {names}` rebinds module state that persists "
                    f"across runs in the same process")
