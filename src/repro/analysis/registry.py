"""Rule base class, module model, and the rule registry."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Type

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover
    from .callgraph import Project

#: Packages/files that form the discrete-event *model*: code that runs
#: inside a simulation and therefore must obey the kernel protocol and
#: the zero-overhead tracing discipline. Paths are relative to the
#: ``repro`` package root, posix-style.
SIM_SCOPE: tuple[str, ...] = (
    "simulation/",
    "yarn/",
    "cluster/",
    "core/",
    "mapreduce/",
    "hdfs/",
    "faults/",
    "sparklite/",
    "simcluster.py",
)

#: Subset whose iteration order and branch decisions feed scheduling or
#: placement (MR201): container grants, node choice, flow allocation.
SCHEDULING_SCOPE: tuple[str, ...] = (
    "yarn/",
    "core/",
    "cluster/",
)

#: Files allowed to read the wall clock: they *measure real execution*
#: (engine timings, calibration, the perf benchmark harness) rather than
#: participate in a simulation.
WALL_CLOCK_EXEMPT: tuple[str, ...] = (
    "calibration.py",
    "bench.py",
    "engine/",
    "analysis/",
    # Host-side persistence: the run-history store's cross-process file
    # lock needs a real timeout, not simulated seconds.
    "tuner/store.py",
)


@dataclass
class ModuleSource:
    """A parsed source file handed to every rule.

    ``rel`` is the path relative to the ``repro`` package root with posix
    separators (``yarn/scheduler.py``); rules use it for scoping. ``path``
    is whatever the caller wants findings reported against (usually the
    path as given on the command line).
    """

    path: str
    rel: str
    text: str
    tree: ast.Module = field(repr=False)

    @classmethod
    def parse(cls, path: str, rel: str, text: str) -> "ModuleSource":
        return cls(path=path, rel=rel, text=text, tree=ast.parse(text, filename=path))

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()

    def line_text(self, lineno: int) -> str:
        lines = self.lines
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""

    def in_scope(self, prefixes: tuple[str, ...]) -> bool:
        for p in prefixes:
            if p.endswith("/"):
                if self.rel.startswith(p):
                    return True
            elif self.rel == p:
                return True
        return False


class Rule:
    """One named check with a stable code, run once over the :class:`Project`.

    Subclasses set ``code``/``name``/``rationale`` and implement
    :meth:`check`, yielding :class:`Finding` objects. A file-local rule
    iterates ``project.modules``; a whole-program rule reads the symbol
    table, call graph and taint summaries built by
    :mod:`repro.analysis.callgraph` and :mod:`repro.analysis.dataflow`.
    A rule must be **pure**: same source in, same findings out — the
    baseline and CI depend on it.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, rel: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


_RULES: dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (import-time only)."""
    if not rule_cls.code:
        raise ValueError(f"{rule_cls.__name__} has no code")
    if rule_cls.code in _RULES:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _RULES[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in code order."""
    return [_RULES[code]() for code in sorted(_RULES)]


def rule_catalog() -> dict[str, dict[str, str]]:
    return {code: {"name": _RULES[code].name,
                   "rationale": _RULES[code].rationale}
            for code in sorted(_RULES)}


# -- shared AST helpers used by several rules ------------------------------

def attribute_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None if the base is not a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return "<unparseable>"


def walk_functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def own_statements(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested functions."""

    def _walk(nodes: list[ast.stmt]) -> Iterator[ast.AST]:
        for stmt in nodes:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from _walk_node(stmt)

    def _walk_node(node: ast.AST) -> Iterator[ast.AST]:
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from _walk_node(child)

    yield from _walk(func.body)

