"""MR103: tracer calls in hot paths must be guarded.

The observability contract (docs/observability.md) is *zero overhead when
disabled*: with ``env.tracer is None`` — the default — every
instrumentation site must cost exactly one attribute read and one ``is
None`` test. An unguarded ``env.tracer.span(...)`` crashes untraced runs
with ``AttributeError``; an unguarded ``tracer.metrics.incr(...)`` whose
guard someone deleted silently re-introduces overhead into the kernel
dispatch and scheduler paths the benchmarks measure.

Recognized guards::

    if env.tracer is not None:
        env.tracer.instant(...)

    tracer = self.env.tracer
    if tracer is not None and other_condition:
        tracer.metrics.incr(...)

    if env.tracer is None:
        return                      # early-out guards the rest of the body
    env.tracer.complete(...)
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Sequence, Union

from .findings import Finding
from .registry import (
    SIM_SCOPE,
    ModuleSource,
    Rule,
    attribute_chain,
    register,
    unparse,
    walk_functions,
)

if TYPE_CHECKING:  # pragma: no cover
    from .callgraph import Project

AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Tracer API whose call sites must be guarded.
TRACER_METHODS = frozenset({
    "span", "instant", "begin", "end", "complete", "async_complete",
    "incr", "observe", "record", "gauge",
})

def _tracer_prefix(chain: Sequence[str]) -> str | None:
    """The sub-chain up to and including the ``tracer`` segment.

    ``["self", "env", "tracer", "metrics", "incr"]`` -> ``"self.env.tracer"``;
    None when the chain does not go through a ``tracer`` segment.
    """
    for i, part in enumerate(chain):
        if part == "tracer":
            return ".".join(chain[: i + 1])
    return None


def _nonnull_exprs(test: ast.expr) -> set[str]:
    """Expressions asserted non-None by this if-test (``X is not None``)."""
    found: set[str] = set()
    for node in ast.walk(test):
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], ast.IsNot)
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None):
            left = node.left
            if isinstance(left, ast.NamedExpr):  # if (t := env.tracer) is not None
                found.add(unparse(left.target))
            else:
                found.add(unparse(left))
    return found


def _null_exprs(test: ast.expr) -> set[str]:
    """Expressions asserted None (used by early-return guards)."""
    found: set[str] = set()
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        found.add(unparse(test.left))
    return found


def _exits(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(body[-1], (ast.Return, ast.Continue,
                                                ast.Raise, ast.Break))


@register
class TracerGuardRule(Rule):
    code = "MR103"
    name = "tracer-guard"
    rationale = (
        "Instrumentation in kernel/scheduler/task hot paths must be "
        "guarded by `tracer is not None` so untraced runs pay one "
        "attribute read and nothing else (and do not crash)."
    )

    def check(self, project: "Project") -> Iterator[Finding]:
        # Hot paths are the simulator model. The tracer's own implementation
        # (``observe/``) and offline consumers (exporters, reports) read
        # tracer objects they know exist.
        for module in project.modules:
            if not module.in_scope(SIM_SCOPE):
                continue
            for func in walk_functions(module.tree):
                yield from self._check_body(module, func.body, guards=set())

    def _check_body(self, module: ModuleSource, body: list[ast.stmt],
                    guards: set[str]) -> Iterator[Finding]:
        guards = set(guards)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested functions are visited as functions
            if isinstance(stmt, ast.If):
                yield from self._check_exprs(module, [stmt.test], guards)
                body_guards = guards | _nonnull_exprs(stmt.test)
                yield from self._check_body(module, stmt.body, body_guards)
                yield from self._check_body(module, stmt.orelse, guards)
                # ``if tracer is None: return`` guards everything after.
                if _exits(stmt.body):
                    guards |= _null_exprs(stmt.test)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                yield from self._check_exprs(module, [stmt.iter], guards)
                yield from self._check_body(module, stmt.body, guards)
                yield from self._check_body(module, stmt.orelse, guards)
            elif isinstance(stmt, ast.While):
                yield from self._check_exprs(module, [stmt.test], guards)
                yield from self._check_body(module, stmt.body, guards)
                yield from self._check_body(module, stmt.orelse, guards)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from self._check_exprs(
                    module, [item.context_expr for item in stmt.items], guards)
                yield from self._check_body(module, stmt.body, guards)
            elif isinstance(stmt, ast.Try):
                yield from self._check_body(module, stmt.body, guards)
                for handler in stmt.handlers:
                    yield from self._check_body(module, handler.body, guards)
                yield from self._check_body(module, stmt.orelse, guards)
                yield from self._check_body(module, stmt.finalbody, guards)
            else:
                # Simple statement: every expression in it runs under the
                # current guard set.
                yield from self._check_exprs(module, [stmt], guards)
        return

    def _check_exprs(self, module: ModuleSource, roots: list[ast.AST],
                     guards: set[str]) -> Iterator[Finding]:
        for root in roots:
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in TRACER_METHODS):
                    continue
                chain = attribute_chain(func)
                if chain is None:
                    continue
                prefix = _tracer_prefix(chain)
                if prefix is None:
                    continue
                if prefix not in guards:
                    yield self.finding(
                        module.rel, node,
                        f"unguarded tracer call `{'.'.join(chain)}(...)` — "
                        f"wrap in `if {prefix} is not None:` (zero overhead "
                        f"when disabled)")
