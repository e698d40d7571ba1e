"""MR104: exact equality on simulated-time floats.

Simulated time is a float accumulated through additions (``now + delay``)
and divisions (``remaining / rate``), so two logically simultaneous
events routinely differ by one ULP. ``==``/``!=`` on time expressions
works in the test that wrote it and breaks when a timing constant
changes; compare with a tolerance (``abs(a - b) < eps``, ``math.isclose``)
or restructure so identity, not arithmetic, decides.

Comparisons against the literal sentinels ``0``/``0.0``/``None`` are
allowed: "never finished" is assigned exactly, not computed.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .findings import Finding
from .registry import ModuleSource, Rule, register, unparse

if TYPE_CHECKING:  # pragma: no cover
    from .callgraph import Project

#: Terminal identifiers that denote a point on the simulated timeline.
TIME_NAMES = frozenset({"now", "eta", "deadline"})
TIME_SUFFIXES = ("_time", "_at", "_deadline")
TIME_CALLS = frozenset({"eta", "peek"})

EXEMPT = ("analysis/",)


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_time_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        return name in TIME_CALLS
    name = _terminal_name(node)
    if name is None:
        return False
    return name in TIME_NAMES or name.endswith(TIME_SUFFIXES)


def _is_sentinel(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value in (0, 0.0, None)


@register
class FloatTimeEqualityRule(Rule):
    code = "MR104"
    name = "float-time-equality"
    rationale = (
        "Simulated times are accumulated floats; == / != on them is "
        "ULP-fragile. Use a tolerance compare, or restructure so exact "
        "identity (an assigned sentinel) decides."
    )

    def check(self, project: "Project") -> Iterator[Finding]:
        for module in project.modules:
            if not module.in_scope(EXEMPT):
                yield from self._check_module(module)

    def _check_module(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                time_side = None
                if _is_time_expr(left) and not _is_sentinel(right):
                    time_side = left
                elif _is_time_expr(right) and not _is_sentinel(left):
                    time_side = right
                if time_side is not None:
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        module.rel, node,
                        f"`{symbol}` on simulated-time expression "
                        f"`{unparse(time_side)}` — floats accumulated from "
                        f"arithmetic need a tolerance compare")
