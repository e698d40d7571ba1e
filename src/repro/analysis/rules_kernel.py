"""MR202: the discrete-event kernel protocol.

A simulation process is a generator resumed by the kernel each time the
event it yielded fires. Yielding anything that is not an
:class:`~repro.simulation.events.Event` used to hang the simulation
silently (fixed in the kernel by failing the process, but the mistake is
still a bug at the yield site). Separately, a kernel *callback* — a
function appended to ``event.callbacks`` — runs inside
``Environment.step``; calling ``step()``/``run()`` from one re-enters the
dispatch loop and corrupts the clock.

The rule catches both whether the offending expression sits in the
function itself or behind helper calls:

    def _pause(self):
        return self.delay * 2            # a float, not an Event

    def body(self):
        yield self._pause()              # hangs/fails the process

    def on_done(event):
        _drain(env)                      # -> env.run() inside a callback

It classifies every function's return as event / not-event / unknown (to
a fixpoint through call chains), flags ``yield helper()`` where every
resolved target definitely cannot return an Event, and walks call edges
out of callback-registered functions to find re-entries into the
dispatch loop. The project call graph indexes only module-level
functions and methods, so functions nested in another (a ``fire``
callback defined inside ``arm``) get the same-function checks only.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Union

from .findings import Finding
from .registry import (
    SIM_SCOPE,
    ModuleSource,
    Rule,
    attribute_chain,
    own_statements,
    register,
    unparse,
    walk_functions,
)

if TYPE_CHECKING:  # pragma: no cover
    from .callgraph import ClassInfo, FunctionInfo, Project

AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: ``Environment`` methods that *create* events; yielding the bound
#: method instead of calling it is a classic slip (``yield env.timeout``).
EVENT_FACTORIES = frozenset({"timeout", "event", "process", "all_of", "any_of"})

#: Attribute/call names whose result is an Event in this codebase.
EVENTISH_ATTRS = frozenset({"done", "finished", "ready"})
EVENTISH_CALLS = EVENT_FACTORIES | frozenset({"request", "get", "put"})

#: What a function's return value can be, as far as ``yield`` cares.
EVENT = "EVENT"
NOT_EVENT = "NOT_EVENT"
UNKNOWN = "UNKNOWN"

#: Where the kernel's Event hierarchy lives.
_EVENTS_MODULE = "simulation/events.py"

#: How many call edges to follow out of a callback before giving up.
_REENTRY_DEPTH = 5


def _is_eventish(node: ast.expr) -> bool:
    """Does this yield expression *look like* it produces an Event?"""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in EVENTISH_CALLS:
            return True
        return False
    if isinstance(node, ast.Attribute):
        return node.attr in EVENTISH_ATTRS
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
        return _is_eventish(node.left) or _is_eventish(node.right)
    return False


def _definitely_not_event(node: Optional[ast.expr]) -> bool:
    """Statically certain the yielded value cannot be an Event."""
    if node is None:  # bare ``yield``
        return True
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.JoinedStr, ast.List, ast.Tuple, ast.Dict, ast.Set,
                         ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                         ast.Compare, ast.BoolOp, ast.Lambda)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
                      ast.Mod, ast.Pow)):
        return True
    if isinstance(node, ast.UnaryOp):
        return _definitely_not_event(node.operand)
    return False


def _callback_names(tree: ast.Module) -> set[str]:
    """Function names registered as kernel callbacks in this module.

    Detects ``<expr>.callbacks.append(fn)``, ``<expr>.callbacks.append(
    lambda ev: fn(...))`` and ``<expr>.callbacks = [fn, ...]``.
    """
    names: set[str] = set()

    def _collect(value: ast.expr) -> None:
        if isinstance(value, ast.Name):
            names.add(value.id)
        elif isinstance(value, ast.Attribute):
            names.add(value.attr)
        elif isinstance(value, ast.Lambda):
            for inner in ast.walk(value.body):
                if isinstance(inner, ast.Call):
                    if isinstance(inner.func, ast.Name):
                        names.add(inner.func.id)
                    elif isinstance(inner.func, ast.Attribute):
                        names.add(inner.func.attr)

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "callbacks"
                and node.args):
            _collect(node.args[0])
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "callbacks"
                        and isinstance(node.value, ast.List)):
                    for elt in node.value.elts:
                        _collect(elt)
    return names


def _is_env_receiver(node: ast.expr) -> bool:
    """True for ``env``, ``self.env``, ``self._env``, ``cluster.env``..."""
    if isinstance(node, ast.Name):
        return node.id in ("env", "environment") or node.id.endswith("_env")
    if isinstance(node, ast.Attribute):
        return node.attr in ("env", "environment") or node.attr.endswith("_env")
    return False


def _class_is_eventish(project: "Project", cls: "ClassInfo",
                       _seen: Optional[set[str]] = None) -> bool:
    """Is this class the kernel Event type or derived from it?"""
    seen = _seen or set()
    if cls.qname in seen:
        return False
    seen.add(cls.qname)
    if cls.module.rel == _EVENTS_MODULE:
        return True
    if cls.name == "Event":
        return True
    for base_name in cls.base_names:
        base = project._class_by_local_name(cls.module.rel, base_name)
        if base is not None and _class_is_eventish(project, base, seen):
            return True
    return False


def classify_returns(project: "Project",
                     max_passes: int = 4) -> dict[str, str]:
    """EVENT / NOT_EVENT / UNKNOWN for every project function's return.

    A *generator* function is NOT_EVENT by definition: calling it returns
    a generator object, which the kernel rejects at a ``yield`` (the fix
    is ``yield from`` or ``env.process(...)``). A function whose every
    ``return`` is statically a non-event — or that never returns a value
    at all — is NOT_EVENT. Anything event-looking anywhere makes it
    EVENT; mixtures and unresolvable calls stay UNKNOWN (never flagged).
    """
    kinds: dict[str, str] = {}
    for qname, info in project.functions.items():
        kinds[qname] = NOT_EVENT if info.is_generator else UNKNOWN

    for _ in range(max_passes):
        changed = False
        for qname, info in project.functions.items():
            if info.is_generator:
                continue
            new = _classify_one(project, info, kinds)
            if new != kinds[qname]:
                kinds[qname] = new
                changed = True
        if not changed:
            break
    return kinds


def _classify_one(project: "Project", info: "FunctionInfo",
                  kinds: dict[str, str]) -> str:
    returns = [n for n in own_statements(info.node)
               if isinstance(n, ast.Return)]
    if not returns or all(r.value is None for r in returns):
        return NOT_EVENT
    verdicts = []
    for r in returns:
        if r.value is None:
            verdicts.append(NOT_EVENT)
            continue
        verdicts.append(_expr_kind(project, info, r.value, kinds))
    if any(v == EVENT for v in verdicts):
        return EVENT
    if all(v == NOT_EVENT for v in verdicts):
        return NOT_EVENT
    return UNKNOWN


def _expr_kind(project: "Project", info: "FunctionInfo", expr: ast.expr,
               kinds: dict[str, str]) -> str:
    if _is_eventish(expr):
        return EVENT
    if isinstance(expr, ast.Call):
        targets = project.call_targets(info.qname, expr)
        if targets:
            verdicts = set()
            for qname in targets:
                callee = project.functions.get(qname)
                if callee is not None and callee.name == "__init__" \
                        and callee.cls is not None:
                    verdicts.add(EVENT if _class_is_eventish(
                        project, callee.cls) else NOT_EVENT)
                else:
                    verdicts.add(kinds.get(qname, UNKNOWN))
            if verdicts == {EVENT}:
                return EVENT
            if verdicts == {NOT_EVENT}:
                return NOT_EVENT
            return UNKNOWN
        return UNKNOWN
    if _definitely_not_event(expr):
        return NOT_EVENT
    return UNKNOWN


def _dispatch_calls(func: AnyFunc) -> Iterator[ast.Call]:
    """Direct ``env.step()`` / ``env.run()`` calls inside this function."""
    for node in own_statements(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("step", "run")
                and _is_env_receiver(node.func.value)):
            yield node



@register
class KernelProtocolRule(Rule):
    code = "MR202"
    name = "kernel-protocol"
    rationale = (
        "Simulation processes must yield Event objects; a non-event yield "
        "fails (and once silently hung) the process. Kernel callbacks run "
        "inside Environment.step and must never re-enter step()/run(), "
        "directly or through helper calls."
    )

    def check(self, project: "Project") -> Iterator[Finding]:
        kinds = classify_returns(project)
        infos = {info.node: info for info in project.functions.values()}
        for module in project.modules:
            if not module.in_scope(SIM_SCOPE):
                continue
            callbacks = _callback_names(module.tree)
            for func in walk_functions(module.tree):
                info = infos.get(func)
                yield from self._check_yields(project, kinds, module, func,
                                              info)
                if func.name in callbacks:
                    yield from self._check_reentry(module, func)
                    if info is not None:
                        yield from self._trace_reentry(project, info)

    # -- non-event yields --------------------------------------------------
    def _check_yields(self, project: "Project", kinds: dict[str, str],
                      module: ModuleSource, func: AnyFunc,
                      info: Optional["FunctionInfo"]) -> Iterator[Finding]:
        yields = [n for n in own_statements(func) if isinstance(n, ast.Yield)]
        # Only functions that demonstrably yield events are treated as
        # simulation processes — data-producing generators (mappers,
        # reducers, record streams) yield values by design.
        is_sim_process = any(
            y.value is not None and _is_eventish(y.value) for y in yields
        )
        for y in yields:
            value = y.value
            if (isinstance(value, ast.Attribute)
                    and value.attr in EVENT_FACTORIES):
                yield self.finding(
                    module.rel, y,
                    f"yield of uncalled event factory "
                    f"`{unparse(value)}` — missing `()`",
                )
            elif not is_sim_process:
                continue
            elif _definitely_not_event(value):
                shown = "<bare yield>" if value is None else unparse(value)
                yield self.finding(
                    module.rel, y,
                    f"simulation process {func.name!r} yields non-event "
                    f"expression `{shown}`",
                )
            elif isinstance(value, ast.Call) and info is not None:
                yield from self._check_helper_yield(project, kinds, info, y,
                                                    value)

    def _check_helper_yield(self, project: "Project", kinds: dict[str, str],
                            info: "FunctionInfo", y: ast.Yield,
                            call: ast.Call) -> Iterator[Finding]:
        targets = project.call_targets(info.qname, call)
        if not targets:
            return
        if {kinds.get(q, UNKNOWN) for q in targets} != {NOT_EVENT}:
            return
        callee = project.functions.get(targets[0])
        hint = (" — a generator; use `yield from` or wrap in "
                "`env.process(...)`"
                if callee is not None and callee.is_generator else "")
        yield self.finding(
            info.rel, y,
            f"simulation process {info.name!r} yields "
            f"`{unparse(call)}`, but "
            f"{targets[0].split('::')[-1]!r} cannot return an "
            f"Event{hint}")

    # -- callback re-entry -------------------------------------------------
    def _check_reentry(self, module: ModuleSource,
                       func: AnyFunc) -> Iterator[Finding]:
        for node in _dispatch_calls(func):
            chain = attribute_chain(node.func)
            shown = ".".join(chain) if chain else unparse(node.func)
            yield self.finding(
                module.rel, node,
                f"kernel callback {func.name!r} re-enters the dispatch loop "
                f"via `{shown}()`",
            )

    def _trace_reentry(self, project: "Project",
                       callback: "FunctionInfo") -> Iterator[Finding]:
        # BFS over call edges; report the *first* call site inside the
        # callback whose transitive closure reaches env.step()/env.run().
        for call, targets in project.callsites.get(callback.qname, ()):
            for target in targets:
                chain = self._reaches_dispatch(project, target, depth=1,
                                               seen={callback.qname})
                if chain is not None:
                    names = " -> ".join(q.split("::")[-1] for q in chain)
                    yield self.finding(
                        callback.rel, call,
                        f"kernel callback {callback.name!r} re-enters the "
                        f"dispatch loop transitively: {names} calls "
                        f"env.step()/env.run() while a step is already on "
                        f"the stack")
                    return

    def _reaches_dispatch(self, project: "Project", qname: str, depth: int,
                          seen: set[str]) -> Optional[list[str]]:
        if qname in seen or depth > _REENTRY_DEPTH:
            return None
        seen.add(qname)
        info = project.functions.get(qname)
        if info is None:
            return None
        if next(_dispatch_calls(info.node), None) is not None:
            return [qname]
        for _, targets in project.callsites.get(qname, ()):
            for target in targets:
                chain = self._reaches_dispatch(project, target, depth + 1, seen)
                if chain is not None:
                    return [qname] + chain
        return None
