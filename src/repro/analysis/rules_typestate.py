"""MR203: acquire/release typestate for paired resources.

The simulator is full of two-call protocols: a tracer span is ``begin``-ed
and must be ``end``-ed, a fabric flow handle must be awaited or killed
(dropping it leaves running work nobody can observe or cancel), wheel
registrations must have a teardown path, the telemetry sampler slot must
be releasable. A leak rarely sits on the happy path — it hides on the
early ``return`` or the error ``raise`` between acquire and release,
often in a different function than either call. MR203 checks three
typestate shapes over the call graph:

* **handle** — the acquire returns a handle (``span = tracer.begin(...)``)
  and every path to function exit must discharge it: pass it to a call
  (release or ownership transfer), store it, return/yield it. A path
  that exits while the handle is live, or an acquire whose result is
  dropped on the floor, is a leak. Release inside ``finally`` protects
  every exit under its ``try``.
* **discard** — the acquire's result must not be discarded as a bare
  expression statement (fabric ``submit``/``execute`` handles).
* **paired** — whole-program pairing: if the project calls the acquire
  but *never* calls the matching release anywhere, the teardown path has
  rotted (e.g. a scraper that can be installed but never uninstalled).

Receivers are typed via the call graph's constructor/annotation
inference, so ``self.tracer.begin`` and a ``tracer: "Tracer"`` parameter
both resolve; unresolvable receivers are skipped (no false positives
from name collisions like ``JobClient.submit``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .findings import Finding
from .registry import Rule, register, unparse

if TYPE_CHECKING:  # pragma: no cover
    from .callgraph import FunctionInfo, Project

LIVE = "LIVE"
DONE = "DONE"


@dataclass(frozen=True)
class ResourcePair:
    """One acquire/release protocol, keyed on the defining class name."""

    cls: str
    acquire: str
    releases: frozenset[str]
    mode: str  # "handle" | "discard" | "paired"
    what: str
    fix: str


PAIRS: tuple[ResourcePair, ...] = (
    ResourcePair(
        cls="Tracer", acquire="begin", releases=frozenset({"end"}),
        mode="handle", what="tracer span",
        fix="call end(span) on every exit path (try/finally)"),
    ResourcePair(
        cls="SharedFabric", acquire="submit", releases=frozenset({"kill"}),
        mode="discard", what="fabric flow",
        fix="await flow.done, kill it, or hand the handle to an owner"),
    ResourcePair(
        cls="FairShareDevice", acquire="execute", releases=frozenset({"kill"}),
        mode="discard", what="device flow",
        fix="await flow.done, kill it, or hand the handle to an owner"),
    ResourcePair(
        cls="HeartbeatWheel", acquire="register",
        releases=frozenset({"unregister"}), mode="paired",
        what="heartbeat-wheel membership",
        fix="keep an unregister path alive (node decommission)"),
    ResourcePair(
        cls="Scraper", acquire="install", releases=frozenset({"uninstall"}),
        mode="paired", what="kernel sampler slot",
        fix="release the env.sampler slot when the run finishes"),
    ResourcePair(
        cls="NodeState", acquire="allocate", releases=frozenset({"release"}),
        mode="paired", what="container resources",
        fix="keep a release path alive (container_finished)"),
)


def _method_qname_map(project: "Project") -> dict[str, tuple[ResourcePair, str]]:
    """Resolved method qname -> (pair, 'acquire'|'release')."""
    out: dict[str, tuple[ResourcePair, str]] = {}
    for cls in project.classes.values():
        for pair in PAIRS:
            if cls.name != pair.cls:
                continue
            acq = cls.methods.get(pair.acquire)
            if acq is not None:
                out[acq.qname] = (pair, "acquire")
            for rel_name in pair.releases:
                rel = cls.methods.get(rel_name)
                if rel is not None:
                    out[rel.qname] = (pair, "release")
    return out


def _mentions(node: ast.AST, names: set[str]) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in names:
            return True
    return False


@dataclass
class _Handle:
    """One live acquire inside a function."""

    pair: ResourcePair
    names: set[str]            # the handle variable and its aliases
    acquire_node: ast.AST
    state: str = LIVE
    leak: Optional[tuple[ast.AST, str]] = None  # (node, why) — first only

    def mark_leak(self, node: ast.AST, why: str) -> None:
        if self.leak is None:
            self.leak = (node, why)


class _TypestateWalker:
    """Path-sensitive walk of one function for handle-mode pairs.

    Tracks each acquired handle from its binding to every function exit.
    Any call that receives the handle discharges the obligation (release
    or ownership transfer — both end local responsibility), as does
    storing, returning, or yielding it. ``finally`` blocks that discharge
    protect every exit under their ``try``.
    """

    def __init__(self, project: "Project", info: "FunctionInfo",
                 qname_map: dict[str, tuple[ResourcePair, str]]) -> None:
        self.project = project
        self.info = info
        self.qname_map = qname_map
        self.handles: list[_Handle] = []
        #: Names discharged by enclosing ``finally`` blocks: exits under
        #: those ``try``s are protected for matching handles.
        self._finally_names: list[set[str]] = []

    def run(self) -> list[_Handle]:
        self._walk_block(self.info.node.body)
        for handle in self.handles:
            if handle.state == LIVE:
                handle.mark_leak(
                    handle.acquire_node,
                    "is never discharged on any path through this function")
        return self.handles

    # -- helpers ------------------------------------------------------------
    def _acquire_pair(self, expr: ast.expr) -> Optional[ResourcePair]:
        if not isinstance(expr, ast.Call):
            return None
        for qname in self.project.call_targets(self.info.qname, expr):
            entry = self.qname_map.get(qname)
            if entry is not None and entry[1] == "acquire" \
                    and entry[0].mode == "handle":
                return entry[0]
        return None

    def _live_handles(self) -> list[_Handle]:
        return [h for h in self.handles if h.state == LIVE]

    def _discharge_in(self, node: ast.AST) -> None:
        """Any call receiving a live handle discharges it; so do stores."""
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                for handle in self._live_handles():
                    if any(_mentions(arg, handle.names)
                           for arg in child.args) \
                            or any(_mentions(kw.value, handle.names)
                                   for kw in child.keywords):
                        handle.state = DONE
                    # ``span.end()``-style method on the handle itself.
                    elif (isinstance(child.func, ast.Attribute)
                          and isinstance(child.func.value, ast.Name)
                          and child.func.value.id in handle.names):
                        handle.state = DONE

    # -- statement walk ------------------------------------------------------
    def _walk_block(self, stmts: list[ast.stmt]) -> str:
        """Returns LIVE (fell through) or "EXIT" (all paths returned)."""
        for stmt in stmts:
            status = self._walk_stmt(stmt)
            if status == "EXIT":
                return "EXIT"
        return LIVE

    def _walk_stmt(self, stmt: ast.stmt) -> str:  # noqa: C901
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return LIVE
        if isinstance(stmt, ast.Assign):
            return self._walk_assign(stmt)
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            fake = ast.Assign(targets=[stmt.target], value=stmt.value)
            ast.copy_location(fake, stmt)
            return self._walk_assign(fake)
        if isinstance(stmt, ast.Expr):
            pair = self._acquire_pair(stmt.value)
            if pair is not None:
                handle = _Handle(pair=pair, names=set(),
                                 acquire_node=stmt.value, state=DONE)
                handle.mark_leak(
                    stmt.value,
                    "has its result discarded — the handle can never be "
                    "released")
                self.handles.append(handle)
                return LIVE
            self._discharge_in(stmt.value)
            return LIVE
        if isinstance(stmt, (ast.Return,)):
            if stmt.value is not None:
                self._discharge_in(stmt.value)
                for handle in self._live_handles():
                    if _mentions(stmt.value, handle.names):
                        handle.state = DONE  # escapes to the caller
            self._exit_while_live(stmt, "leaks on this return path")
            return "EXIT"
        if isinstance(stmt, ast.Raise):
            self._exit_while_live(stmt, "leaks on this error path")
            return "EXIT"
        if isinstance(stmt, ast.If):
            self._discharge_in(stmt.test)
            return self._walk_branches([stmt.body, stmt.orelse])
        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._discharge_in(stmt.iter)
            self._walk_block(stmt.body)
            self._walk_block(stmt.orelse)
            return LIVE
        if isinstance(stmt, ast.While):
            self._discharge_in(stmt.test)
            self._walk_block(stmt.body)
            self._walk_block(stmt.orelse)
            return LIVE
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._discharge_in(item.context_expr)
            return self._walk_block(stmt.body)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return LIVE
        for child in ast.iter_child_nodes(stmt):
            self._discharge_in(child)
        return LIVE

    def _walk_assign(self, stmt: ast.Assign) -> str:
        pair = self._acquire_pair(stmt.value)
        target = stmt.targets[0] if len(stmt.targets) == 1 else None
        if pair is not None and isinstance(target, ast.Name):
            self.handles.append(_Handle(
                pair=pair, names={target.id}, acquire_node=stmt.value))
            return LIVE
        self._discharge_in(stmt.value)
        for handle in self._live_handles():
            if _mentions(stmt.value, handle.names):
                if isinstance(target, ast.Name):
                    handle.names.add(target.id)  # alias
                else:
                    handle.state = DONE  # stored into an attribute/container
        return LIVE

    def _walk_branches(self, blocks: list[list[ast.stmt]]) -> str:
        saved = [(h, h.state) for h in self.handles]
        exits = []
        merged: dict[int, str] = {}
        for block in blocks:
            for handle, state in saved:
                handle.state = state
            count_before = len(self.handles)
            exits.append(self._walk_block(block))
            for i, handle in enumerate(self.handles):
                if i < count_before:
                    prev = merged.get(i)
                    merged[i] = self._merge(prev, handle.state,
                                            exited=exits[-1] == "EXIT")
                else:
                    merged[i] = handle.state
        for i, handle in enumerate(self.handles):
            if i in merged:
                handle.state = merged[i]
        return "EXIT" if all(e == "EXIT" for e in exits) else LIVE

    @staticmethod
    def _merge(prev: Optional[str], state: str, exited: bool) -> str:
        # A branch that exited the function already reported/charged its
        # paths; it does not constrain the fall-through state.
        if exited:
            return prev if prev is not None else DONE
        if prev is None:
            return state
        return DONE if (prev == DONE and state == DONE) else LIVE

    def _exit_while_live(self, stmt: ast.stmt, why: str) -> None:
        protected: set[str] = set()
        for names in self._finally_names:
            protected |= names
        for handle in self._live_handles():
            if handle.names & protected:
                handle.state = DONE  # the enclosing finally discharges it
            else:
                handle.mark_leak(stmt, why)
                handle.state = DONE

    def _walk_try(self, stmt: ast.Try) -> str:
        # Names a finally block passes to a call (or calls a method on)
        # are discharged on *every* exit under this try — returns and
        # raises inside are protected for matching handles.
        released_names: set[str] = set()
        for node in stmt.finalbody:
            for child in ast.walk(node):
                if not isinstance(child, ast.Call):
                    continue
                for arg in list(child.args) + [kw.value for kw in child.keywords]:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name):
                            released_names.add(sub.id)
                if isinstance(child.func, ast.Attribute) \
                        and isinstance(child.func.value, ast.Name):
                    released_names.add(child.func.value.id)
        self._finally_names.append(released_names)
        try:
            status = self._walk_block(stmt.body)
            for handler in stmt.handlers:
                self._walk_block(handler.body)
            self._walk_block(stmt.orelse)
        finally:
            self._finally_names.pop()
        final_status = self._walk_block(stmt.finalbody)
        if final_status == "EXIT":
            return "EXIT"
        return status


@register
class ResourceTypestateRule(Rule):
    code = "MR203"
    name = "resource-typestate"
    rationale = (
        "Paired resources (tracer spans, fabric flows, wheel memberships, "
        "the kernel sampler slot, container grants) must be released on "
        "every path; a leak on an early return or error path silently "
        "skews accounting and figures."
    )

    def check(self, project: "Project") -> Iterator[Finding]:
        qname_map = _method_qname_map(project)
        if not qname_map:
            return
        yield from self._check_handles(project, qname_map)
        yield from self._check_paired(project, qname_map)

    # -- handle + discard modes ---------------------------------------------
    def _check_handles(self, project: "Project",
                       qname_map: dict[str, tuple[ResourcePair, str]]
                       ) -> Iterator[Finding]:
        for info in project.functions.values():
            if info.module.rel.startswith("analysis/"):
                continue
            walker = _TypestateWalker(project, info, qname_map)
            for handle in walker.run():
                if handle.leak is None:
                    continue
                node, why = handle.leak
                yield self.finding(
                    info.rel, node,
                    f"{handle.pair.what} acquired by "
                    f"`{unparse(handle.acquire_node)}` in {info.name!r} "
                    f"{why} — {handle.pair.fix}")
            yield from self._check_discards(project, info, qname_map)

    def _check_discards(self, project: "Project", info: "FunctionInfo",
                        qname_map: dict[str, tuple[ResourcePair, str]]
                        ) -> Iterator[Finding]:
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            for qname in project.call_targets(info.qname, node.value):
                entry = qname_map.get(qname)
                if entry is None or entry[1] != "acquire" \
                        or entry[0].mode != "discard":
                    continue
                pair = entry[0]
                yield self.finding(
                    info.rel, node.value,
                    f"{pair.what} handle from "
                    f"`{unparse(node.value)}` is discarded in "
                    f"{info.name!r} — {pair.fix}")

    # -- paired mode ---------------------------------------------------------
    def _check_paired(self, project: "Project",
                      qname_map: dict[str, tuple[ResourcePair, str]]
                      ) -> Iterator[Finding]:
        acquire_sites: dict[ResourcePair, list[tuple["FunctionInfo", ast.Call]]] = {}
        released: set[ResourcePair] = set()
        for caller_q, sites in project.callsites.items():
            info = project.functions[caller_q]
            if info.module.rel.startswith("analysis/"):
                continue
            for call, targets in sites:
                for qname in targets:
                    entry = qname_map.get(qname)
                    if entry is None:
                        continue
                    pair, role = entry
                    if pair.mode != "paired":
                        continue
                    if role == "acquire":
                        acquire_sites.setdefault(pair, []).append((info, call))
                    else:
                        released.add(pair)
                # An *unresolved* method call whose name matches a release
                # may well be one (dict-indexed receivers defeat typing);
                # stay conservative and count it.
                if not targets and isinstance(call.func, ast.Attribute):
                    for pair in PAIRS:
                        if pair.mode == "paired" \
                                and call.func.attr in pair.releases:
                            released.add(pair)
        for pair, sites in sorted(acquire_sites.items(),
                                  key=lambda kv: kv[0].cls):
            if pair in released:
                continue
            info, call = min(
                sites, key=lambda s: (s[0].rel, s[1].lineno))
            releases = "/".join(sorted(pair.releases))
            yield self.finding(
                info.rel, call,
                f"{pair.what}: {pair.cls}.{pair.acquire}() is called but "
                f"{pair.cls}.{releases}() is never called anywhere in the "
                f"project — the teardown path is dead; {pair.fix}")
