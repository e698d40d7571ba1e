"""MR102: bit-determinism of simulated runs.

Every figure and benchmark in this repository relies on runs being
bit-identical given the same seed (the parallel sweep literally asserts
byte-identical output, see ``repro.experiments.parallel``). Three
sources break that silently anywhere in model code:

* wall-clock reads (``time.time``/``datetime.now``/``perf_counter``) in
  model code — simulated time is ``env.now``, never the host clock;
* module-level ``random.*`` calls — they draw from the process-global
  RNG, whose state depends on import order and prior runs; model code
  must use a seeded ``random.Random(seed)`` instance;
* ``id()`` used as a sort key or dict/set key — CPython addresses vary
  per process and allocation history.

Hash-ordered iteration is a *flow* into a scheduling decision, not a
source, so it is MR201's (:mod:`repro.analysis.rules_taint`).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .findings import Finding
from .registry import (
    WALL_CLOCK_EXEMPT,
    ModuleSource,
    Rule,
    attribute_chain,
    register,
)

if TYPE_CHECKING:  # pragma: no cover
    from .callgraph import Project

WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
    ("time", "time_ns"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "paretovariate", "triangular", "getrandbits", "seed",
    "vonmisesvariate", "weibullvariate", "lognormvariate",
})


@register
class DeterminismRule(Rule):
    code = "MR102"
    name = "determinism"
    rationale = (
        "Runs must be bit-deterministic for a given seed: no wall clock, "
        "no process-global RNG, no id()-keyed ordering in model code."
    )

    def check(self, project: "Project") -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: ModuleSource) -> Iterator[Finding]:
        random_imports = self._random_imports(module.tree)
        wall_clock_ok = module.in_scope(WALL_CLOCK_EXEMPT)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                if not wall_clock_ok:
                    yield from self._check_wall_clock(module, node)
                yield from self._check_global_random(module, node, random_imports)
                yield from self._check_id_key(module, node)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                yield from self._check_id_subscript(module, node)
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and self._is_id_call(key):
                        yield self.finding(
                            module.rel, key, "id() used as a dict key — "
                            "addresses are not stable across runs")

    # -- wall clock --------------------------------------------------------
    def _check_wall_clock(self, module: ModuleSource, node: ast.Call) -> Iterator[Finding]:
        chain = attribute_chain(node.func)
        if not chain or len(chain) < 2:
            return
        pair = (chain[-2], chain[-1])
        if pair in WALL_CLOCK_CALLS:
            yield self.finding(
                module.rel, node,
                f"wall-clock read `{'.'.join(chain)}()` in model code — use "
                f"`env.now` (simulated seconds)")

    # -- process-global random --------------------------------------------
    @staticmethod
    def _random_imports(tree: ast.Module) -> set[str]:
        """Names bound by ``from random import ...`` in this module."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in GLOBAL_RANDOM_FUNCS:
                        names.add(alias.asname or alias.name)
        return names

    def _check_global_random(self, module: ModuleSource, node: ast.Call,
                             imported: set[str]) -> Iterator[Finding]:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr in GLOBAL_RANDOM_FUNCS):
            yield self.finding(
                module.rel, node,
                f"process-global `random.{func.attr}()` — use a seeded "
                f"`random.Random(seed)` instance")
        elif isinstance(func, ast.Name) and func.id in imported:
            yield self.finding(
                module.rel, node,
                f"process-global `{func.id}()` (from random import) — use a "
                f"seeded `random.Random(seed)` instance")

    # -- id() as ordering/identity key -------------------------------------
    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "id")

    def _check_id_key(self, module: ModuleSource, node: ast.Call) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            value = kw.value
            if isinstance(value, ast.Name) and value.id == "id":
                yield self.finding(
                    module.rel, kw.value, "`key=id` sorts by memory address — "
                    "not stable across runs")
            elif isinstance(value, ast.Lambda) and any(
                    self._is_id_call(n) for n in ast.walk(value.body)):
                yield self.finding(
                    module.rel, kw.value, "sort key computed from id() — memory "
                    "addresses are not stable across runs")

    def _check_id_subscript(self, module: ModuleSource,
                            node: ast.Subscript) -> Iterator[Finding]:
        if self._is_id_call(node.slice):
            yield self.finding(
                module.rel, node, "id() used as a mapping key — addresses are "
                "not stable across runs")
