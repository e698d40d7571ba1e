"""Project-wide symbol table and call graph.

The per-file rules (MR1xx) see one :class:`ModuleSource` at a time; the
MR2xx family needs to follow a value through ``self._candidates()`` into
another method, possibly in another module. This module builds that view:

* a **symbol table** of every module-level function and class method,
  keyed by a stable qualified name ``<rel>::<Class>.<method>`` /
  ``<rel>::<function>``;
* a per-module **import map** (``from ..cluster.fabric import SharedFabric``
  resolves ``SharedFabric`` to ``cluster/fabric.py::SharedFabric``);
* light **receiver typing** — constructor assignments in ``__init__``
  (``self.fabric = SharedFabric(env)``), parameter annotations naming
  project classes (including string annotations under ``TYPE_CHECKING``),
  and local constructor calls — so ``self.fabric.submit()`` resolves to
  ``SharedFabric.submit`` and not to every ``submit`` in the tree;
* the **call graph** itself: for each function, every ``ast.Call`` with
  the set of project functions it may target.

Resolution is deliberately name-and-type based, not a full type system:
unresolvable calls get an empty target set and downstream analyses treat
them as opaque (no taint in, no taint out). That under-approximates, which
is the right default for a linter — a missed edge costs recall, a wrong
edge costs a false positive in CI.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .registry import ModuleSource, attribute_chain

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Attribute names so generic that unique-method fallback resolution would
#: mostly produce wrong edges (they collide with builtin container APIs).
_GENERIC_ATTRS = frozenset({
    "get", "pop", "append", "add", "remove", "discard", "clear", "update",
    "extend", "insert", "items", "keys", "values", "copy", "sort", "index",
    "count", "join", "split", "strip", "format", "encode", "decode",
    "read", "write", "close", "open", "popleft", "appendleft", "setdefault",
})


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qname: str
    module: ModuleSource
    node: FuncDef
    name: str
    cls: Optional["ClassInfo"] = None
    is_generator: bool = False

    @property
    def rel(self) -> str:
        return self.module.rel

    def param_names(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        return names


@dataclass
class ClassInfo:
    """One class definition: methods, bases, and inferred attribute types."""

    qname: str
    name: str
    module: ModuleSource
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qname, inferred from ``__init__`` bodies.
    attr_types: dict[str, str] = field(default_factory=dict)


def _is_generator(node: FuncDef) -> bool:
    for child in ast.walk(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child is not node:
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            # ast.walk descends into nested defs; re-check ownership.
            return _owns(node, child)
    return False


def _owns(func: FuncDef, target: ast.AST) -> bool:
    """True if ``target`` lexically belongs to ``func`` (not a nested def)."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if node is target:
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _rel_to_dotted(rel: str) -> str:
    """``yarn/scheduler.py`` -> ``yarn.scheduler``; ``yarn/__init__.py`` -> ``yarn``."""
    stem = rel[:-3] if rel.endswith(".py") else rel
    parts = [p for p in stem.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Project:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self, modules: list[ModuleSource]) -> None:
        self.modules = list(modules)
        self.by_rel: dict[str, ModuleSource] = {m.rel: m for m in self.modules}
        #: function qname -> info
        self.functions: dict[str, FunctionInfo] = {}
        #: class qname -> info
        self.classes: dict[str, ClassInfo] = {}
        #: bare method name -> every class method with that name
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: (rel, symbol) for module-level defs
        self._module_funcs: dict[tuple[str, str], FunctionInfo] = {}
        self._module_classes: dict[tuple[str, str], ClassInfo] = {}
        #: rel -> {local name -> (target rel, symbol)} from ``from X import y``
        self._imports: dict[str, dict[str, tuple[str, str]]] = {}
        #: dotted module name -> rel (for resolving import targets)
        self._dotted: dict[str, str] = {}
        #: caller qname -> list of (Call node, tuple of callee qnames)
        self.callsites: dict[str, list[tuple[ast.Call, tuple[str, ...]]]] = {}
        #: callee qname -> caller qnames
        self.callers: dict[str, set[str]] = {}

        for mod in self.modules:
            self._dotted[_rel_to_dotted(mod.rel)] = mod.rel
        for mod in self.modules:
            self._index_module(mod)
        self._infer_attr_types()
        for info in self.functions.values():
            self._resolve_callsites(info)

    # -- indexing -----------------------------------------------------------
    def _index_module(self, mod: ModuleSource) -> None:
        imports: dict[str, tuple[str, str]] = {}
        self._imports[mod.rel] = imports
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom):
                target = self._resolve_import_module(mod.rel, node)
                if target is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports[local] = (target, alias.name)
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(mod, node)

    def _add_function(self, mod: ModuleSource, node: FuncDef,
                      cls: Optional[ClassInfo]) -> FunctionInfo:
        if cls is None:
            qname = f"{mod.rel}::{node.name}"
        else:
            qname = f"{mod.rel}::{cls.name}.{node.name}"
        info = FunctionInfo(qname=qname, module=mod, node=node, name=node.name,
                            cls=cls, is_generator=_is_generator(node))
        self.functions[qname] = info
        if cls is None:
            self._module_funcs[(mod.rel, node.name)] = info
        else:
            cls.methods[node.name] = info
            self.methods_by_name.setdefault(node.name, []).append(info)
        return info

    def _add_class(self, mod: ModuleSource, node: ast.ClassDef) -> None:
        qname = f"{mod.rel}::{node.name}"
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        cls = ClassInfo(qname=qname, name=node.name, module=mod,
                        node=node, base_names=bases)
        self.classes[qname] = cls
        self._module_classes[(mod.rel, node.name)] = cls
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, child, cls=cls)

    def _resolve_import_module(self, rel: str,
                               node: ast.ImportFrom) -> Optional[str]:
        """Map an ImportFrom to a project rel path, or None if external."""
        if node.level == 0:
            dotted = node.module or ""
            # Absolute: strip a leading package name that isn't in our
            # dotted map (the ``repro.`` prefix — rels are package-root
            # relative).
            if dotted in self._dotted:
                return self._dotted[dotted]
            head, _, tail = dotted.partition(".")
            if tail and tail in self._dotted:
                return self._dotted[tail]
            return None
        # Relative: climb ``level`` packages from this module's package.
        pkg_parts = rel.split("/")[:-1]
        for _ in range(node.level - 1):
            if not pkg_parts:
                return None
            pkg_parts.pop()
        dotted_parts = pkg_parts + (node.module.split(".") if node.module else [])
        dotted = ".".join(dotted_parts)
        return self._dotted.get(dotted)

    # -- receiver typing ----------------------------------------------------
    def _class_by_local_name(self, rel: str, name: str) -> Optional[ClassInfo]:
        """Resolve a bare class name as seen from module ``rel``."""
        cls = self._module_classes.get((rel, name))
        if cls is not None:
            return cls
        imp = self._imports.get(rel, {}).get(name)
        if imp is not None:
            target_rel, symbol = imp
            cls = self._module_classes.get((target_rel, symbol))
            if cls is not None:
                return cls
            # ``from . import node`` style re-exports: look for the symbol
            # in the target package's __init__ import map.
            nested = self._imports.get(target_rel, {}).get(symbol)
            if nested is not None:
                return self._module_classes.get(nested)
        # Unique class name anywhere in the project (string annotations
        # under TYPE_CHECKING usually name classes without importing them
        # at runtime).
        matches = [c for (_, n), c in self._module_classes.items() if n == name]
        if len(matches) == 1:
            return matches[0]
        return None

    def _annotation_class(self, rel: str,
                          annotation: Optional[ast.expr]) -> Optional[ClassInfo]:
        if annotation is None:
            return None
        name: Optional[str] = None
        node: ast.AST = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotation: '"ResourceManager"' or '"Optional[Node]"'.
            text = node.value.strip()
            for wrapper in ("Optional[", "typing.Optional["):
                if text.startswith(wrapper) and text.endswith("]"):
                    text = text[len(wrapper):-1]
            if text.isidentifier():
                name = text
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Subscript):
            # Optional[X] / "X | None" handled only for the common Optional.
            base = node.value
            if isinstance(base, ast.Name) and base.id == "Optional":
                return self._annotation_class(rel, node.slice)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self._annotation_class(rel, node.left)
            if left is not None:
                return left
            return self._annotation_class(rel, node.right)
        if name is None:
            return None
        return self._class_by_local_name(rel, name)

    def _constructor_class(self, rel: str, expr: ast.expr) -> Optional[ClassInfo]:
        """``SharedFabric(env)`` -> ClassInfo, if the callee names a project class."""
        if not isinstance(expr, ast.Call):
            return None
        fn = expr.func
        if isinstance(fn, ast.Name):
            return self._class_by_local_name(rel, fn.id)
        if isinstance(fn, ast.Attribute):
            return self._class_by_local_name(rel, fn.attr)
        return None

    def _infer_attr_types(self) -> None:
        for cls in self.classes.values():
            init = cls.methods.get("__init__")
            if init is None:
                continue
            rel = cls.module.rel
            param_types: dict[str, ClassInfo] = {}
            args = init.node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                klass = self._annotation_class(rel, arg.annotation)
                if klass is not None:
                    param_types[arg.arg] = klass
            for stmt in ast.walk(init.node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                value = stmt.value
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    klass: Optional[ClassInfo] = None
                    if isinstance(stmt, ast.AnnAssign):
                        klass = self._annotation_class(rel, stmt.annotation)
                    if klass is None and value is not None:
                        klass = self._constructor_class(rel, value)
                        if klass is None and isinstance(value, ast.Name):
                            klass = param_types.get(value.id)
                    if klass is not None:
                        cls.attr_types.setdefault(target.attr, klass.qname)

    # -- class/method lookup ------------------------------------------------
    def class_method(self, cls: ClassInfo, name: str,
                     _seen: Optional[set[str]] = None) -> Optional[FunctionInfo]:
        """Find ``name`` on ``cls`` or (by name) on its project bases."""
        seen = _seen or set()
        if cls.qname in seen:
            return None
        seen.add(cls.qname)
        if name in cls.methods:
            return cls.methods[name]
        for base_name in cls.base_names:
            base = self._class_by_local_name(cls.module.rel, base_name)
            if base is not None:
                found = self.class_method(base, name, seen)
                if found is not None:
                    return found
        return None

    # -- call resolution ----------------------------------------------------
    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> tuple[str, ...]:
        """Project functions a call may target (empty if opaque)."""
        fn = call.func
        rel = caller.rel
        if isinstance(fn, ast.Name):
            info = self._module_funcs.get((rel, fn.id))
            if info is not None:
                return (info.qname,)
            imp = self._imports.get(rel, {}).get(fn.id)
            if imp is not None:
                target = self._module_funcs.get(imp)
                if target is not None:
                    return (target.qname,)
                klass = self._module_classes.get(imp)
                if klass is not None:
                    ctor = klass.methods.get("__init__")
                    return (ctor.qname,) if ctor is not None else ()
            klass = self._module_classes.get((rel, fn.id))
            if klass is not None:
                ctor = klass.methods.get("__init__")
                return (ctor.qname,) if ctor is not None else ()
            return ()
        if not isinstance(fn, ast.Attribute):
            return ()
        method_name = fn.attr
        receiver_cls = self._receiver_class(caller, fn.value)
        if receiver_cls is not None:
            info = self.class_method(receiver_cls, method_name)
            return (info.qname,) if info is not None else ()
        # Module attribute call: ``fabric.submit`` where ``fabric`` is an
        # imported *module* — not modelled; fall through to uniqueness.
        if method_name in _GENERIC_ATTRS:
            return ()
        candidates = self.methods_by_name.get(method_name, ())
        if len(candidates) == 1:
            return (candidates[0].qname,)
        return ()

    def _receiver_class(self, caller: FunctionInfo,
                        receiver: ast.expr) -> Optional[ClassInfo]:
        """Best-effort type of a call receiver expression."""
        chain = attribute_chain(receiver)
        if chain is None:
            ctor = self._constructor_class(caller.rel, receiver)
            return ctor
        # ``self`` / ``cls`` receivers.
        if chain[0] in ("self", "cls") and caller.cls is not None:
            cls: Optional[ClassInfo] = caller.cls
            for attr in chain[1:]:
                if cls is None:
                    return None
                attr_q = cls.attr_types.get(attr)
                cls = self.classes.get(attr_q) if attr_q else None
            return cls
        # Parameter or annotated local with a project-class annotation.
        cls = self._name_class(caller, chain[0])
        for attr in chain[1:]:
            if cls is None:
                return None
            attr_q = cls.attr_types.get(attr)
            cls = self.classes.get(attr_q) if attr_q else None
        return cls

    def _name_class(self, caller: FunctionInfo, name: str) -> Optional[ClassInfo]:
        args = caller.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg == name:
                return self._annotation_class(caller.rel, arg.annotation)
        # Local assigned from a constructor or an annotated assignment.
        for stmt in ast.walk(caller.node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        klass = self._constructor_class(caller.rel, stmt.value)
                        if klass is not None:
                            return klass
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                    return self._annotation_class(caller.rel, stmt.annotation)
        return None

    def _resolve_callsites(self, caller: FunctionInfo) -> None:
        sites: list[tuple[ast.Call, tuple[str, ...]]] = []
        for node in ast.walk(caller.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not caller.node:
                continue
            if isinstance(node, ast.Call) and _owns(caller.node, node):
                targets = self.resolve_call(caller, node)
                sites.append((node, targets))
                for t in targets:
                    self.callers.setdefault(t, set()).add(caller.qname)
        self.callsites[caller.qname] = sites

    # -- convenience --------------------------------------------------------
    def functions_in(self, prefixes: tuple[str, ...]) -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if info.module.in_scope(prefixes):
                yield info

    def call_targets(self, caller_qname: str, call: ast.Call) -> tuple[str, ...]:
        for node, targets in self.callsites.get(caller_qname, ()):
            if node is call:
                return targets
        return ()

    def stats(self) -> dict[str, int]:
        edges = sum(len(t) for sites in self.callsites.values()
                    for _, t in sites)
        return {"modules": len(self.modules),
                "functions": len(self.functions),
                "classes": len(self.classes),
                "call_edges": edges}


def build_project(modules: list[ModuleSource]) -> Project:
    """Build the whole-program view for a set of parsed modules."""
    return Project(modules)
