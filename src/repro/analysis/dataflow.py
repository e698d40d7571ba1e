"""Forward dataflow/taint engine over the project call graph.

Tracks two taint kinds through assignments, expressions, and resolved
call/return edges:

* ``ORDER`` — a collection whose *iteration order* depends on
  ``PYTHONHASHSEED`` (a set, or any sequence built by iterating one
  without sorting: ``list(s)``, ``[x for x in s]``…);
* ``VALUE`` — a scalar whose *value* is process-dependent (``id()``,
  ``hash()``, process-global ``random.*``, or the first element popped
  off a hash-ordered sequence).

Each function gets a :class:`Summary`: which kinds its return value
carries when called with clean arguments, and how taint on each
parameter flows to the return. Summaries are computed to a fixpoint over
the call graph, so ``a() -> b() -> c()`` chains converge regardless of
definition order. ``sorted(...)``, ``.sort()`` and rebinding a name
as ``x = sorted(x)`` are sanitizers; order-insensitive folds (``len``,
``sum``, ``min``, ``max``, ``any``, ``all``) drop ORDER taint.

The engine is flow-insensitive within a function (names accumulate
facts) — cheap, convergent, and biased toward *under*-reporting. The
MR201 rule layered on top reports every real fact that reaches a sink,
whether it was born in the same function or crossed call edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from .callgraph import FunctionInfo, Project
from .registry import attribute_chain
from .rules_determinism import GLOBAL_RANDOM_FUNCS

ORDER = "ORDER"
VALUE = "VALUE"

#: Builtins that fold a collection order-insensitively.
_ORDER_SINKING_FOLDS = frozenset({
    "len", "sum", "min", "max", "any", "all", "sorted", "set", "frozenset",
})
#: Builtins/constructors that preserve the element order of their argument.
_ORDER_PRESERVING = frozenset({
    "list", "tuple", "iter", "reversed", "enumerate", "zip", "deque",
})
#: Set-algebra methods whose result is a fresh unordered collection.
_SET_ALGEBRA = frozenset({
    "intersection", "union", "difference", "symmetric_difference",
})


@dataclass(frozen=True)
class Taint:
    """One taint fact on a value.

    ``param``/``entry_kind`` make the fact *symbolic*: it models "if
    parameter ``param`` arrives carrying ``entry_kind``". Real facts
    (``param is None``) root in a concrete source described by ``desc``.
    ``desc``/``via``/``line`` are provenance for messages only and do not
    participate in equality — the fixpoint must terminate.
    """

    kind: str
    param: Optional[int] = None
    entry_kind: Optional[str] = None
    desc: str = field(default="", compare=False)
    via: str = field(default="", compare=False)
    line: int = field(default=0, compare=False)

    @property
    def is_real(self) -> bool:
        return self.param is None


@dataclass
class Summary:
    """Taint behaviour of one function, as seen from a call site."""

    #: Real facts the return value carries with clean arguments.
    returns: frozenset[Taint] = frozenset()
    #: (param index, entry kind) -> kinds reaching the return value.
    param_flow: frozenset[tuple[int, str, str]] = frozenset()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Summary):
            return NotImplemented
        return (self.returns == other.returns
                and self.param_flow == other.param_flow)


EMPTY_SUMMARY = Summary()


@dataclass(frozen=True)
class TaintSink:
    """A place where tainted data influences behaviour (for MR201)."""

    node: ast.AST
    fact: Taint
    what: str  # "iteration" | "sort-key" | "branch"


def _is_set_annotation(node: ast.expr) -> bool:
    """``set``, ``frozenset[int]``, ``Set[str]``...: an unordered type."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id in (
        "set", "frozenset", "Set", "FrozenSet", "AbstractSet")


def _fold_order(facts: set[Taint]) -> set[Taint]:
    """Element extraction: a value pulled off a hash-ordered sequence."""
    out = set()
    for f in facts:
        if f.kind == ORDER:
            out.add(replace(f, kind=VALUE))
        else:
            out.add(f)
    return out


def _sorted_names(node: ast.AST) -> set[str]:
    """Names ``.sort()``-ed or rebound as ``x = sorted(x)`` anywhere in the
    function ``node``. A function's names do not change between fixpoint
    passes, so :func:`compute_summaries` collects them once."""
    names: set[str] = set()
    for child in ast.walk(node):
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "sort"
                and isinstance(child.func.value, ast.Name)):
            names.add(child.func.value.id)
        elif (isinstance(child, ast.Assign) and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
                and isinstance(child.value, ast.Call)
                and isinstance(child.value.func, ast.Name)
                and child.value.func.id == "sorted"
                and child.value.args
                and isinstance(child.value.args[0], ast.Name)
                and child.value.args[0].id == child.targets[0].id):
            names.add(child.targets[0].id)
    return names


class _FunctionAnalysis:
    """One flow-insensitive pass over a single function."""

    def __init__(self, project: Project, info: FunctionInfo,
                 summaries: dict[str, Summary],
                 sorted_names: set[str]) -> None:
        self.project = project
        self.info = info
        self.summaries = summaries
        self.env: dict[str, set[Taint]] = {}
        self.return_facts: set[Taint] = set()
        self.sinks: list[TaintSink] = []
        #: :func:`_sorted_names` of the function: ORDER facts never stick
        #: to them (flow-insensitive sanitization).
        self.sorted_names = sorted_names
        self._seed_params()

    # -- setup --------------------------------------------------------------
    def _seed_params(self) -> None:
        params = self.info.param_names()
        offset = 0
        if params and params[0] in ("self", "cls"):
            offset = 1
        for i, name in enumerate(params[offset:]):
            self.env[name] = {
                Taint(ORDER, param=i, entry_kind=ORDER),
                Taint(VALUE, param=i, entry_kind=VALUE),
            }

    # -- driver -------------------------------------------------------------
    def run(self, collect_sinks: bool) -> Summary:
        for _ in range(4):
            before = {k: frozenset(v) for k, v in self.env.items()}
            returns_before = frozenset(self.return_facts)
            self._walk_body(self.info.node.body)
            if ({k: frozenset(v) for k, v in self.env.items()} == before
                    and frozenset(self.return_facts) == returns_before):
                break
        if collect_sinks:
            self._collect_all_sinks()
        returns = frozenset(f for f in self.return_facts if f.is_real)
        flows = frozenset(
            (f.param, f.entry_kind, f.kind)
            for f in self.return_facts if not f.is_real)
        return Summary(returns=returns, param_flow=flows)

    # -- statements ---------------------------------------------------------
    def _walk_body(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function has no call-graph node of its own: its
            # bindings join this function's names (it reads them as a
            # closure anyway); its returns are not this function's.
            returns = set(self.return_facts)
            self._walk_body(stmt.body)
            self.return_facts = returns
            return
        if isinstance(stmt, ast.Assign):
            facts = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, facts)
        elif isinstance(stmt, ast.AnnAssign):
            facts = self.eval(stmt.value)
            if _is_set_annotation(stmt.annotation):
                facts.add(Taint(ORDER, line=stmt.lineno,
                                desc=f"set annotated at line {stmt.lineno}"))
            self._assign(stmt.target, facts)
        elif isinstance(stmt, ast.AugAssign):
            facts = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self._merge(stmt.target.id, facts)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_facts = self.eval(stmt.iter)
            self._assign(stmt.target, _fold_order(iter_facts))
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                facts = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, facts)
            self._walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_facts |= self.eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        # Raise/Pass/Break/Continue/Import/Global/Nonlocal/Assert/Delete:
        # nothing flows.

    def _assign(self, target: ast.expr, facts: set[Taint]) -> None:
        if isinstance(target, ast.Name):
            self._merge(target.id, facts)
        elif isinstance(target, (ast.Tuple, ast.List)):
            unpacked = _fold_order(facts) if any(
                f.kind == ORDER for f in facts) else facts
            for elt in target.elts:
                self._assign(elt, unpacked)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, facts)
        # Attribute/subscript stores: not tracked (object fields are out of
        # scope for this engine — under-approximate).

    def _merge(self, name: str, facts: set[Taint]) -> None:
        if name in self.sorted_names:
            facts = {f for f in facts if f.kind != ORDER}
        if not facts:
            return
        self.env.setdefault(name, set()).update(facts)

    # -- expressions --------------------------------------------------------
    def eval(self, node: Optional[ast.expr]) -> set[Taint]:  # noqa: C901
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, (ast.Set, ast.SetComp)):
            facts = {Taint(ORDER, desc=f"set built at line {node.lineno}",
                           line=node.lineno)}
            if isinstance(node, ast.SetComp):
                for gen in node.generators:
                    self._comp_generator(gen)
            return facts
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            facts: set[Taint] = set()
            for gen in node.generators:
                facts |= self._comp_generator(gen)
            facts |= {f for f in self.eval(node.elt) if f.kind == VALUE}
            return facts
        if isinstance(node, ast.DictComp):
            facts = set()
            for gen in node.generators:
                facts |= self._comp_generator(gen)
            return facts
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            # ``obj.attr``: propagate conservatively only for VALUE taint
            # (an attribute of a nondeterministic thing may be anything);
            # ORDER does not survive attribute access.
            return {f for f in self.eval(node.value) if f.kind == VALUE}
        if isinstance(node, ast.Subscript):
            return _fold_order(self.eval(node.value)) | {
                f for f in self.eval(node.slice) if f.kind == VALUE}
        if isinstance(node, ast.BinOp):
            return {f for f in self.eval(node.left) | self.eval(node.right)
                    if f.kind == VALUE}
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            facts = set()
            for v in node.values:
                facts |= self.eval(v)
            return facts
        if isinstance(node, ast.Compare):
            # Comparisons read values, not order; booleans built from
            # VALUE-tainted operands stay VALUE-tainted.
            facts = {f for f in self.eval(node.left) if f.kind == VALUE}
            for comp in node.comparators:
                facts |= {f for f in self.eval(comp) if f.kind == VALUE}
            return facts
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List)):
            facts = set()
            for elt in node.elts:
                facts |= self.eval(elt)
            return facts
        if isinstance(node, ast.Dict):
            facts = set()
            for key in node.keys:
                if key is not None:
                    facts |= {f for f in self.eval(key) if f.kind == VALUE}
            for value in node.values:
                facts |= {f for f in self.eval(value) if f.kind == VALUE}
            return facts
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            facts = self.eval(node.value)
            self._assign(node.target, facts)
            return facts
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            return set()
        return set()

    def _comp_generator(self, gen: ast.comprehension) -> set[Taint]:
        """Bind the comp target; return ORDER facts the result inherits."""
        iter_facts = self.eval(gen.iter)
        self._assign(gen.target, _fold_order(iter_facts))
        for cond in gen.ifs:
            self.eval(cond)
        return {f for f in iter_facts if f.kind == ORDER}

    # -- calls --------------------------------------------------------------
    def _call(self, call: ast.Call) -> set[Taint]:
        arg_facts = [self.eval(a) for a in call.args]
        for kw in call.keywords:
            self.eval(kw.value)
        fn = call.func

        if isinstance(fn, ast.Name):
            name = fn.id
            if name in ("id", "hash"):
                return {Taint(VALUE, desc=f"{name}() at line {call.lineno}",
                              line=call.lineno)}
            if name in ("set", "frozenset"):
                return {Taint(ORDER, desc=f"{name}() at line {call.lineno}",
                              line=call.lineno)}
            if name == "sorted":
                return self._sorted_like(call, arg_facts)
            if name in ("min", "max"):
                facts = self._key_taint(call)
                for af in arg_facts:
                    facts |= {f for f in af if f.kind == VALUE}
                return facts
            if name in _ORDER_SINKING_FOLDS:
                facts = set()
                for af in arg_facts:
                    facts |= {f for f in af if f.kind == VALUE}
                return facts
            if name in _ORDER_PRESERVING:
                facts = set()
                for af in arg_facts:
                    facts |= af
                return facts
            if name == "next":
                facts = set()
                for af in arg_facts:
                    facts |= _fold_order(af)
                return facts

        if isinstance(fn, ast.Attribute):
            chain = attribute_chain(fn)
            if (chain and len(chain) == 2 and chain[0] == "random"
                    and chain[1] in GLOBAL_RANDOM_FUNCS):
                return {Taint(VALUE, line=call.lineno,
                              desc=f"random.{chain[1]}() at line {call.lineno}")}
            if chain is not None and chain[-2:] == ["os", "listdir"]:
                return {Taint(ORDER, line=call.lineno,
                              desc=f"os.listdir() at line {call.lineno}")}
            if fn.attr in _SET_ALGEBRA:
                return {Taint(ORDER, line=call.lineno,
                              desc=f".{fn.attr}() at line {call.lineno}")}
            if fn.attr == "copy":
                return self.eval(fn.value)
            if fn.attr == "pop":
                return _fold_order(self.eval(fn.value))

        targets = self.project.call_targets(self.info.qname, call)
        if targets:
            return self._apply_summaries(call, targets, arg_facts)
        return set()

    def _sorted_like(self, call: ast.Call, arg_facts: list[set[Taint]]) -> set[Taint]:
        """``sorted(x)`` sanitizes ORDER — unless the key is nondeterministic."""
        facts = self._key_taint(call)
        if facts:
            facts = {replace(f, kind=ORDER) for f in facts}
        for af in arg_facts:
            facts |= {f for f in af if f.kind == VALUE}
        return facts

    def _key_taint(self, call: ast.Call) -> set[Taint]:
        """VALUE facts produced by a ``key=`` argument's body or callee."""
        for kw in call.keywords:
            if kw.arg != "key":
                continue
            value = kw.value
            if isinstance(value, ast.Lambda):
                return {f for f in self.eval(value.body) if f.kind == VALUE}
            if isinstance(value, (ast.Name, ast.Attribute)):
                targets = self._resolve_key_func(value)
                facts: set[Taint] = set()
                for qname in targets:
                    summary = self.summaries.get(qname, EMPTY_SUMMARY)
                    facts |= {replace(f, via=_extend_via(f.via, qname))
                              for f in summary.returns if f.kind == VALUE}
                return facts
        return set()

    def _resolve_key_func(self, value: ast.expr) -> tuple[str, ...]:
        fake = ast.Call(func=value, args=[], keywords=[])
        ast.copy_location(fake, value)
        return self.project.resolve_call(self.info, fake)

    def _apply_summaries(self, call: ast.Call, targets: tuple[str, ...],
                         arg_facts: list[set[Taint]]) -> set[Taint]:
        out: set[Taint] = set()
        for qname in targets:
            callee = self.project.functions.get(qname)
            if callee is not None and callee.name == "__init__":
                continue  # constructor: the instance is not a taint carrier
            summary = self.summaries.get(qname, EMPTY_SUMMARY)
            for f in summary.returns:
                out.add(replace(f, via=_extend_via(f.via, qname)))
            if not summary.param_flow:
                continue
            flow: dict[tuple[int, str], set[str]] = {}
            for pi, entry_kind, out_kind in summary.param_flow:
                flow.setdefault((pi, entry_kind), set()).add(out_kind)
            for j, facts in enumerate(arg_facts):
                for f in facts:
                    for out_kind in flow.get((j, f.kind), ()):
                        out.add(replace(f, kind=out_kind,
                                        via=_extend_via(f.via, qname)))
        return out

    # -- sinks (MR201) ------------------------------------------------------
    def _collect_all_sinks(self) -> None:
        # Nested functions included: their bindings are in ``self.env``.
        for node in ast.walk(self.info.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._sink_iteration(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    self._sink_iteration(gen.iter)
            elif isinstance(node, ast.Call):
                self._sink_sort_key(node)
            elif isinstance(node, (ast.If, ast.While)):
                self._sink_branch(node.test)

    def _sink_iteration(self, iter_expr: ast.expr) -> None:
        for f in self.eval(iter_expr):
            if f.kind == ORDER and f.is_real:
                self.sinks.append(TaintSink(iter_expr, f, "iteration"))
                return

    def _sink_sort_key(self, call: ast.Call) -> None:
        fn = call.func
        is_sorter = (isinstance(fn, ast.Name) and fn.id in ("sorted", "min", "max")) \
            or (isinstance(fn, ast.Attribute) and fn.attr == "sort")
        if not is_sorter:
            return
        for f in self._key_taint(call):
            if f.is_real:
                self.sinks.append(TaintSink(call, f, "sort-key"))
                return

    def _sink_branch(self, test: ast.expr) -> None:
        for f in self.eval(test):
            if f.kind == VALUE and f.is_real:
                self.sinks.append(TaintSink(test, f, "branch"))
                return


def _extend_via(via: str, qname: str) -> str:
    short = qname.split("::")[-1]
    if not via:
        return short
    if via.count(" -> ") >= 2:  # keep chains readable
        return via
    return f"{short} -> {via}"


def compute_summaries(project: Project,
                      max_passes: int = 6) -> dict[str, Summary]:
    """Fixpoint taint summaries for every function in the project."""
    summaries: dict[str, Summary] = {
        q: EMPTY_SUMMARY for q in project.functions}
    order = sorted(project.functions)
    sorted_names = {q: _sorted_names(project.functions[q].node) for q in order}
    for _ in range(max_passes):
        changed = False
        for qname in order:
            info = project.functions[qname]
            new = _FunctionAnalysis(project, info, summaries,
                                    sorted_names[qname]).run(
                collect_sinks=False)
            if new != summaries[qname]:
                summaries[qname] = new
                changed = True
        if not changed:
            break
    return summaries


def function_sinks(project: Project, info: FunctionInfo,
                   summaries: dict[str, Summary]) -> list[TaintSink]:
    """Taint sinks in one function, given converged summaries."""
    analysis = _FunctionAnalysis(project, info, summaries,
                                 _sorted_names(info.node))
    analysis.run(collect_sinks=True)
    return analysis.sinks


def iter_sinks(project: Project, summaries: dict[str, Summary],
               prefixes: tuple[str, ...]) -> Iterator[tuple[FunctionInfo, TaintSink]]:
    """All sinks in functions whose module matches ``prefixes``."""
    for info in project.functions_in(prefixes):
        for sink in function_sinks(project, info, summaries):
            yield info, sink
