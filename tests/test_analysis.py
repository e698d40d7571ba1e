"""Tests for the repro.analysis static analyzer and determinism sanitizer.

Each rule gets at least one firing fixture and one non-firing fixture,
written as the idioms the live tree actually uses — the non-firing cases
double as a spec of the approved patterns.
"""

import json
import os
import textwrap

import pytest

from repro.analysis import Baseline, analyze_paths
from repro.analysis import main as analysis_main
from repro.analysis.callgraph import build_project
from repro.analysis.registry import ModuleSource, all_rules, rule_catalog

SRC_ROOT = "src/repro"


def run_project_rule(code, sources):
    """Findings of one rule over a synthetic project of {rel: source}."""
    modules = [
        ModuleSource.parse(f"src/repro/{rel}", rel, textwrap.dedent(src))
        for rel, src in sources.items()
    ]
    [rule] = [r for r in all_rules() if r.code == code]
    return list(rule.check(build_project(modules)))


def run_rule(code, rel, source):
    """Findings of one rule over a synthetic module at package path ``rel``."""
    return run_project_rule(code, {rel: source})


# -- registry ------------------------------------------------------------------

def test_catalog_has_all_rules():
    assert sorted(rule_catalog()) == ["MR102", "MR103", "MR104", "MR105",
                                      "MR201", "MR202", "MR203"]


# -- MR202 kernel protocol, within one function --------------------------------

def test_mr202_flags_uncalled_factory_yield():
    found = run_rule("MR202", "mapreduce/tasks.py", """
        def body(env):
            yield env.timeout
    """)
    assert [f.code for f in found] == ["MR202"]
    assert found[0].message == (
        "yield of uncalled event factory `env.timeout` — missing `()`")


def test_mr202_flags_non_event_yield_in_sim_process():
    found = run_rule("MR202", "core/dplus.py", """
        def body(env):
            yield env.timeout(1.0)
            yield 42
    """)
    assert len(found) == 1
    assert found[0].message == (
        "simulation process 'body' yields non-event expression `42`")


def test_mr202_allows_data_generators_and_event_yields():
    assert run_rule("MR202", "mapreduce/tasks.py", """
        def mapper(record):
            for word in record.split():
                yield (word, 1)

        def body(env, dev):
            yield env.timeout(1.0)
            yield dev.execute(10.0).done
            yield env.all_of([env.timeout(1.0), env.timeout(2.0)])
    """) == []


def test_mr202_flags_step_reentry_from_callback():
    found = run_rule("MR202", "cluster/fabric.py", """
        def arm(env, timer):
            def fire(ev):
                env.step()
            timer.callbacks.append(fire)
    """)
    assert len(found) == 1
    assert found[0].message == (
        "kernel callback 'fire' re-enters the dispatch loop via `env.step()`")


def test_mr202_flags_reentry_from_callback_nested_in_a_method():
    """The call graph indexes no nested function, so the same-function
    check is all that sees this callback."""
    source = """
        class Fabric:
            def arm(self, timer):
                def fire(ev):
                    self.env.step()
                timer.callbacks.append(fire)
    """
    project = build_project([ModuleSource.parse(
        "src/repro/cluster/fabric.py", "cluster/fabric.py",
        textwrap.dedent(source))])
    assert sorted(project.functions) == ["cluster/fabric.py::Fabric.arm"]
    found = run_rule("MR202", "cluster/fabric.py", source)
    assert [(f.line, f.message) for f in found] == [
        (5, "kernel callback 'fire' re-enters the dispatch loop via "
            "`self.env.step()`")]


def test_mr202_allows_step_outside_callbacks():
    assert run_rule("MR202", "simulation/core.py", """
        def drain(env):
            while True:
                env.step()
    """) == []


# -- MR102 determinism ---------------------------------------------------------

def test_mr102_flags_wall_clock():
    found = run_rule("MR102", "yarn/scheduler.py", """
        import time
        def stamp():
            return time.time()
    """)
    assert len(found) == 1


def test_mr102_allows_wall_clock_in_calibration_code():
    assert run_rule("MR102", "calibration.py", """
        import time
        def stamp():
            return time.perf_counter()
    """) == []


def test_mr102_flags_global_random():
    found = run_rule("MR102", "hdfs/namenode.py", """
        import random
        def pick(nodes):
            return random.choice(nodes)
    """)
    assert len(found) == 1


def test_mr102_allows_seeded_rng_instance():
    assert run_rule("MR102", "hdfs/namenode.py", """
        import random
        def pick(nodes, seed):
            rng = random.Random(seed)
            return rng.choice(nodes)
    """) == []


def test_mr102_flags_id_sort_key():
    found = run_rule("MR102", "yarn/scheduler.py", """
        def order(tasks):
            return sorted(tasks, key=id)
    """)
    assert len(found) == 1



# -- MR103 tracer guards -------------------------------------------------------

def test_mr103_flags_unguarded_tracer_call():
    found = run_rule("MR103", "yarn/scheduler.py", """
        def grant(self, env):
            env.tracer.instant("grant", "sched")
    """)
    assert len(found) == 1
    assert "env.tracer" in found[0].message


def test_mr103_accepts_direct_and_alias_guards():
    assert run_rule("MR103", "yarn/scheduler.py", """
        def grant(self, env):
            if env.tracer is not None:
                env.tracer.instant("grant", "sched")
            tracer = self.rm.env.tracer
            if tracer is not None and self.count > 0:
                tracer.counter("containers").inc(self.count)
    """) == []


@pytest.mark.parametrize("push", [
    'env.tracer.counter("rm:allocate_calls").inc()',
    'env.tracer.histogram("scheduler:grant_queue_delay_s").observe(0.5)',
    "env.tracer.grants.inc()",
], ids=["counter", "histogram", "instrument-attribute"])
def test_mr103_flags_unguarded_metric_push(push):
    found = run_rule("MR103", "yarn/resourcemanager.py", f"""
        def allocate(self, env):
            {push}
    """)
    assert len(found) == 1
    assert "env.tracer" in found[0].message


def test_mr103_accepts_early_return_guard():
    assert run_rule("MR103", "core/ampool.py", """
        def note(self, env):
            if env.tracer is None:
                return
            env.tracer.instant("pool", "ampool")
    """) == []


def test_mr103_guard_does_not_leak_to_else_or_siblings():
    found = run_rule("MR103", "core/ampool.py", """
        def note(self, env):
            if env.tracer is not None:
                pass
            env.tracer.instant("pool", "ampool")
    """)
    assert len(found) == 1


def test_mr103_ignores_cold_paths():
    assert run_rule("MR103", "observe/exporters.py", """
        def dump(tracer):
            tracer.instant("x", "dump", "cluster", "lane")
    """) == []


# -- MR104 float time equality -------------------------------------------------

def test_mr104_flags_time_equality():
    found = run_rule("MR104", "core/dplus.py", """
        def check(env, task):
            return env.now == task.finish_time
    """)
    assert len(found) == 1
    assert "==" in found[0].message


def test_mr104_allows_sentinel_and_ordering_compares():
    assert run_rule("MR104", "core/dplus.py", """
        def check(env, task):
            if task.finish_time == 0.0:
                return False
            return env.now >= task.deadline
    """) == []


# -- MR105 cross-run state -----------------------------------------------------

def test_mr105_flags_module_counter_and_cache():
    found = run_rule("MR105", "core/ampool.py", """
        import itertools
        _ids = itertools.count(1)
        _cache = {}
    """)
    assert sorted(f.message.split("`")[1] for f in found) == [
        "_cache = {}", "_ids = itertools.count(1)"]


def test_mr105_flags_global_statement():
    found = run_rule("MR105", "experiments/parallel.py", """
        _jobs = 1
        def set_jobs(n):
            global _jobs
            _jobs = n
    """)
    assert len(found) == 1
    assert "global _jobs" in found[0].message


def test_mr105_allows_constant_tables_and_instance_state():
    assert run_rule("MR105", "core/ampool.py", """
        import itertools
        MODES = {"dplus": 1, "uplus": 2}
        NAMES = ["a", "b"]
        class Pool:
            def __init__(self):
                self._ids = itertools.count(1)
                self.cache = {}
    """) == []


# -- MR201 scheduling determinism taint ----------------------------------------

def test_mr201_flags_set_iteration_in_scheduling_scope():
    found = run_rule("MR201", "yarn/scheduler.py", """
        def place(pending):
            ready = set(pending)
            for task in ready:
                launch(task)
    """)
    assert len(found) == 1
    # A set-typed annotation, and a set local to a nested function (which
    # has no call-graph node of its own), are hash-ordered too.
    found = run_rule("MR201", "yarn/scheduler.py", """
        def place(busy: set[str]):
            ready: set[str] = busy
            for task in ready:
                launch(task)

        def arm(pending):
            def fire(ev):
                ready = set(pending)
                for task in ready:
                    launch(task)
            return fire
    """)
    assert [f.line for f in found] == [4, 10]


def test_mr201_allows_sorted_set_and_out_of_scope_sets():
    assert run_rule("MR201", "yarn/scheduler.py", """
        def place(pending):
            ready = set(pending)
            for task in sorted(ready):
                launch(task)
    """) == []
    assert run_rule("MR201", "workloads/wordcount.py", """
        def words(text):
            for w in set(text.split()):
                yield w
    """) == []


def test_mr201_allows_a_set_rebound_as_sorted():
    assert run_rule("MR201", "yarn/scheduler.py", """
        def place(pending):
            ready = set(pending)
            ready = sorted(ready)
            for task in ready:
                launch(task)
    """) == []


def test_mr201_flags_hash_order_through_helper():
    found = run_project_rule("MR201", {"yarn/scheduler.py": """
        class Scheduler:
            def __init__(self):
                self.nodes = ["n1", "n2"]

            def _candidates(self):
                return set(self.nodes)

            def assign(self, launch):
                for node in self._candidates():
                    launch(node)
    """})
    assert [f.code for f in found] == ["MR201"]
    assert "_candidates" in found[0].message
    assert found[0].path == "yarn/scheduler.py"


def test_mr201_follows_taint_across_modules():
    found = run_project_rule("MR201", {
        "cluster/pool.py": """
            def free_nodes(nodes, busy):
                return {n for n in nodes if n not in busy}
        """,
        "yarn/scheduler.py": """
            from ..cluster.pool import free_nodes

            def place(nodes, busy, launch):
                for node in free_nodes(nodes, busy):
                    launch(node)
        """})
    assert [f.code for f in found] == ["MR201"]
    assert "free_nodes" in found[0].message


def test_mr201_quiet_on_sorted_and_same_function_and_out_of_scope():
    # sorted() sanitizes; a same-function flow is reported exactly once;
    # modules outside the scheduling scope are not sinks.
    found = run_project_rule("MR201", {"yarn/scheduler.py": """
        class Scheduler:
            def __init__(self):
                self.nodes = ["n1", "n2"]

            def _candidates(self):
                return set(self.nodes)

            def assign(self, launch):
                for node in sorted(self._candidates()):
                    launch(node)

            def assign_local(self, launch):
                ready = set(self.nodes)
                for node in ready:
                    launch(node)
    """})
    assert [(f.code, f.line) for f in found] == [("MR201", 15)]
    assert "'assign_local' iterates `ready`" in found[0].message
    assert run_project_rule("MR201", {"workloads/shuffle.py": """
        def _parts(text):
            return set(text.split())

        def emit(text, out):
            for word in _parts(text):
                out(word)
    """}) == []


# -- MR202 kernel protocol, through helper calls -------------------------------

def test_mr202_flags_yield_of_helper_that_cannot_return_event():
    found = run_project_rule("MR202", {"mapreduce/tasks.py": """
        class Runner:
            def _pause(self):
                return 2.0

            def body(self, env):
                yield env.timeout(1.0)
                yield self._pause()
    """})
    assert len(found) == 1
    assert "_pause" in found[0].message


def test_mr202_hints_yield_from_for_generator_helpers():
    found = run_project_rule("MR202", {"core/dplus.py": """
        class Runner:
            def _steps(self, env):
                yield env.timeout(1.0)

            def body(self, env):
                yield env.timeout(1.0)
                yield self._steps(env)
    """})
    assert len(found) == 1
    assert "yield from" in found[0].message


def test_mr202_allows_event_returning_and_unknown_helpers():
    assert run_project_rule("MR202", {"mapreduce/tasks.py": """
        class Runner:
            def _pause(self, env):
                return env.timeout(2.0)

            def _maybe(self, env, flag):
                if flag:
                    return env.timeout(1.0)
                return self.cached

            def body(self, env):
                yield env.timeout(1.0)
                yield self._pause(env)
                yield self._maybe(env, True)
    """}) == []


def test_mr202_flags_transitive_callback_reentry():
    found = run_project_rule("MR202", {"cluster/fabric.py": """
        def _drain(env):
            env.run()

        def fire(ev):
            _drain(ev.env)

        def arm(env, timer):
            timer.callbacks.append(fire)
    """})
    assert len(found) == 1
    assert "re-enters" in found[0].message
    assert "_drain" in found[0].message


def test_mr202_allows_callbacks_that_schedule_without_reentry():
    assert run_project_rule("MR202", {"cluster/fabric.py": """
        def _note(env, ev):
            env.schedule(ev)

        def fire(ev):
            _note(ev.env, ev)

        def arm(env, timer):
            timer.callbacks.append(fire)
    """}) == []


# -- MR203 resource typestate ----------------------------------------------------

_TRACER_SRC = """
    class Tracer:
        def begin(self, name):
            return name

        def end(self, span):
            pass
"""


def test_mr203_flags_span_leak_on_early_return():
    found = run_project_rule("MR203", {
        "observe/tracer.py": _TRACER_SRC,
        "yarn/runner.py": """
            from ..observe.tracer import Tracer

            class Runner:
                def __init__(self, tracer: Tracer):
                    self.tracer = tracer

                def work(self, fail):
                    span = self.tracer.begin("work")
                    if fail:
                        return None
                    self.tracer.end(span)
        """})
    assert len(found) == 1
    assert "return path" in found[0].message
    assert found[0].path == "yarn/runner.py"


def test_mr203_finally_protects_every_exit():
    assert run_project_rule("MR203", {
        "observe/tracer.py": _TRACER_SRC,
        "yarn/runner.py": """
            from ..observe.tracer import Tracer

            class Runner:
                def __init__(self, tracer: Tracer):
                    self.tracer = tracer

                def work(self, fail):
                    span = self.tracer.begin("work")
                    try:
                        if fail:
                            return None
                        return span
                    finally:
                        self.tracer.end(span)
        """}) == []


def test_mr203_flags_discarded_flow_handle():
    found = run_project_rule("MR203", {
        "cluster/fabric.py": """
            class SharedFabric:
                def submit(self, size):
                    return size

                def kill(self, flow):
                    pass
        """,
        "cluster/mover.py": """
            from .fabric import SharedFabric

            class Mover:
                def __init__(self):
                    self.fabric = SharedFabric()

                def go(self):
                    self.fabric.submit(1.0)
        """})
    assert len(found) == 1
    assert "discarded" in found[0].message


def test_mr203_flags_dead_teardown_path():
    found = run_project_rule("MR203", {
        "telemetry/scraper.py": """
            class Scraper:
                def install(self):
                    pass

                def uninstall(self):
                    pass
        """,
        "telemetry/facade.py": """
            from .scraper import Scraper

            class Telemetry:
                def __init__(self):
                    self.scraper = Scraper()

                def start(self):
                    self.scraper.install()
        """})
    assert len(found) == 1
    assert "uninstall" in found[0].message
    assert "never called" in found[0].message


def test_mr203_quiet_when_release_path_exists():
    assert run_project_rule("MR203", {
        "telemetry/scraper.py": """
            class Scraper:
                def install(self):
                    pass

                def uninstall(self):
                    pass
        """,
        "telemetry/facade.py": """
            from .scraper import Scraper

            class Telemetry:
                def __init__(self):
                    self.scraper = Scraper()

                def start(self):
                    self.scraper.install()

                def finish(self):
                    self.scraper.uninstall()
        """}) == []


# -- line/column precision -----------------------------------------------------

def test_findings_carry_precise_location():
    [finding] = run_rule("MR102", "yarn/scheduler.py", """
        import time

        def stamp():
            return time.time()
    """)
    assert finding.line == 5
    assert finding.path == "yarn/scheduler.py"
    assert finding.render().startswith("yarn/scheduler.py:5:")


# -- baseline workflow ---------------------------------------------------------

def test_baseline_keys_survive_line_moves_not_edits():
    module = ModuleSource.parse("src/repro/x.py", "yarn/x.py",
                                "import time\n\ndef f():\n    return time.time()\n")
    [rule] = [r for r in all_rules() if r.code == "MR102"]
    [finding] = rule.check(build_project([module]))
    key = finding.baseline_key(module.line_text(finding.line))
    baseline = Baseline(entries={key: 1})
    baselined, new = baseline.split([(finding, module.line_text(finding.line))])
    assert len(baselined) == 1 and not new
    # Same line shifted two lines down: still baselined (content-keyed).
    moved = ModuleSource.parse(
        "src/repro/x.py", "yarn/x.py",
        "import time\n\n\n\ndef f():\n    return time.time()\n")
    [finding2] = rule.check(build_project([moved]))
    baselined, new = baseline.split(
        [(finding2, moved.line_text(finding2.line))])
    assert len(baselined) == 1 and not new
    # Edited line: the exception is re-reviewed.
    edited_key = finding.baseline_key("return time.time()  # changed")
    assert edited_key != key


def test_baseline_count_budget_is_enforced():
    baseline = Baseline(entries={"MR102::a.py::x": 1})
    pairs = [(f, "x") for f in run_rule("MR102", "yarn/s.py", """
        import time
        def f():
            return (time.time(), time.time())
    """)]
    assert len(pairs) == 2
    # Wrong key: both new. Matching key with budget 1: one of each.
    _, new = baseline.split(pairs)
    assert len(new) == 2


# -- whole-tree integration ----------------------------------------------------

@pytest.fixture(scope="module")
def live_tree():
    """One whole-tree analysis against the committed baseline, shared by
    the tests that only read it."""
    baseline = Baseline.find(SRC_ROOT)
    return baseline, analyze_paths([SRC_ROOT], baseline=baseline)


def test_live_tree_has_no_non_baselined_findings(live_tree):
    baseline, result = live_tree
    assert baseline.path is not None, "lint_baseline.json missing"
    assert result.parse_errors == []
    assert [f.render() for f in result.new] == []


def test_every_baseline_entry_is_still_used(live_tree):
    """Stale baseline entries must be pruned, not accumulate."""
    baseline, result = live_tree
    used = {}
    for finding, line_text in result.findings:
        key = finding.baseline_key(line_text)
        used[key] = used.get(key, 0) + 1
    for key, count in baseline.entries.items():
        assert used.get(key, 0) >= count, f"stale baseline entry: {key}"


def test_every_baseline_entry_has_justification():
    baseline = Baseline.find(SRC_ROOT)
    for key in baseline.entries:
        assert key in baseline.notes and len(baseline.notes[key]) > 20, (
            f"baseline entry without a why: {key}")


def test_json_output_schema(live_tree, capsys, monkeypatch):
    # Drive the CLI on the shared whole-tree result instead of a second
    # analysis of the same tree.
    from repro.analysis import runner

    _, result = live_tree
    monkeypatch.setattr(runner, "analyze_paths", lambda *a, **kw: result)
    code = analysis_main(["--json", SRC_ROOT])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["version"] == 2
    assert payload["new_count"] == 0
    assert set(payload["rules"]) == set(rule_catalog())
    for entry in payload["findings"]:
        assert set(entry) >= {"path", "line", "col", "code", "message",
                              "baselined"}
        assert entry["code"] in payload["rules"]
        assert entry["baselined"] is True
    # Whole-program pass metadata: call-graph size, stale keys, timing.
    assert payload["stale_baseline"] == []
    assert payload["project"]["modules"] > 10
    assert payload["project"]["functions"] > 100
    assert payload["project"]["call_edges"] > 100
    assert payload["elapsed_s"] > 0


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "repro" / "yarn"
    bad.mkdir(parents=True)
    (bad / "hot.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n")
    assert analysis_main(["--no-baseline", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "MR102" in out
    (bad / "broken.py").write_text("def f(:\n")
    assert analysis_main(["--no-baseline", str(bad)]) == 2


def test_update_baseline_roundtrip(tmp_path, capsys):
    tree = tmp_path / "repro" / "yarn"
    tree.mkdir(parents=True)
    (tree / "hot.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n")
    baseline_path = tmp_path / "lint_baseline.json"
    assert analysis_main(["--baseline", str(baseline_path),
                          "--update-baseline", str(tree)]) == 0
    capsys.readouterr()
    assert analysis_main(["--baseline", str(baseline_path), str(tree)]) == 0


@pytest.mark.parametrize("flags", [
    ["--list-rules"],
    ["--baseline", "{baseline}", "{tree}"],
    ["--baseline", "{baseline}", "--no-baseline", "--json", "{tree}"],
])
def test_repro_lint_is_the_analyzer(tmp_path, capsys, flags):
    """``repro lint ARGS`` is ``python -m repro.analysis ARGS``: one
    parser, so every analyzer flag (``--baseline`` among them) works."""
    from repro.cli import main as cli_main

    tree = tmp_path / "repro" / "yarn"
    tree.mkdir(parents=True)
    (tree / "hot.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n")
    baseline = tmp_path / "accepted.json"
    assert analysis_main(["--baseline", str(baseline), "--update-baseline",
                          str(tree)]) == 0
    capsys.readouterr()
    argv = [f.format(baseline=baseline, tree=tree) for f in flags]

    def outcome(run):
        code = run()
        out = capsys.readouterr().out
        if "--json" in argv:
            payload = json.loads(out)
            payload.pop("elapsed_s")
            return code, payload
        return code, out

    expected = outcome(lambda: analysis_main(argv))
    assert outcome(lambda: cli_main(["lint", *argv])) == expected
    assert expected[0] == (1 if "--no-baseline" in argv else 0)


def _write_tree(root, files):
    """Materialize a {rel: source} dict under ``root/repro`` on disk."""
    for rel, src in files.items():
        path = root / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return str(root / "repro")


_LEAK_TREE = {
    "telemetry/scraper.py": """
        class Scraper:
            def install(self):
                pass

            def uninstall(self):
                pass
    """,
    "telemetry/facade.py": """
        from .scraper import Scraper

        class Telemetry:
            def __init__(self):
                self.scraper = Scraper()

            def start(self):
                self.scraper.install()
    """,
}


def test_rules_filter_selects_whole_program_rules(tmp_path, capsys):
    """--rules gates every rule the same way: MR203 sees the leak, MR102
    sees nothing."""
    tree = _write_tree(tmp_path, _LEAK_TREE)
    assert analysis_main(["--no-baseline", "--rules", "MR203", tree]) == 1
    out = capsys.readouterr().out
    assert "MR203" in out and "uninstall" in out
    assert analysis_main(["--no-baseline", "--rules", "MR102", tree]) == 0


def test_fail_stale_gates_on_unused_baseline_entries(tmp_path, capsys):
    tree = tmp_path / "repro" / "yarn"
    tree.mkdir(parents=True)
    (tree / "clean.py").write_text("def f():\n    return 1\n")
    baseline_path = tmp_path / "lint_baseline.json"
    baseline_path.write_text(json.dumps({"accepted": {
        "MR102:yarn/gone.py:return time.time()": {
            "count": 1, "why": "file was deleted"}}}))
    # Stale entries alone never fail a plain run...
    assert analysis_main(["--baseline", str(baseline_path), str(tree)]) == 0
    capsys.readouterr()
    # ...but the CI gate does, naming the dead key.
    assert analysis_main(["--baseline", str(baseline_path),
                          "--fail-stale", str(tree)]) == 1
    out = capsys.readouterr().out
    assert "STALE-BASELINE" in out and "yarn/gone.py" in out


def test_update_baseline_prunes_stale_entries(tmp_path, capsys):
    tree = tmp_path / "repro" / "yarn"
    tree.mkdir(parents=True)
    hot = tree / "hot.py"
    hot.write_text("import time\n\ndef f():\n    return time.time()\n")
    baseline_path = tmp_path / "lint_baseline.json"
    assert analysis_main(["--baseline", str(baseline_path),
                          "--update-baseline", str(tree)]) == 0
    assert Baseline.load(str(baseline_path)).entries
    capsys.readouterr()
    hot.write_text("def f():\n    return 1\n")  # bug fixed
    assert analysis_main(["--baseline", str(baseline_path),
                          "--update-baseline", str(tree)]) == 0
    assert "pruned" in capsys.readouterr().out
    assert Baseline.load(str(baseline_path)).entries == {}


def test_changed_files_reflects_git_worktree(tmp_path, tmp_path_factory):
    import subprocess

    from repro.analysis.runner import changed_files

    def git(*argv):
        subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                        *argv], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "seed")
    assert changed_files(cwd=str(tmp_path)) == []
    (tmp_path / "a.py").write_text("x = 2\n")       # modified, tracked
    (tmp_path / "b.py").write_text("y = 1\n")       # untracked
    changed = changed_files(cwd=str(tmp_path))
    assert sorted(os.path.basename(p) for p in changed) == ["a.py", "b.py"]
    assert all(os.path.isabs(p) for p in changed)
    # Outside any repository the helper degrades to None (= analyze all).
    outside = tmp_path_factory.mktemp("not_a_repo")
    assert changed_files(cwd=str(outside)) is None


def test_report_only_scopes_report_not_the_analysis(tmp_path):
    """A whole-program finding lands in the sink file; scoping the report
    to the helper's file must hide it, scoping to the sink must keep it —
    and in both cases the cross-module taint is still computed."""
    tree = _write_tree(tmp_path, {
        "cluster/pool.py": """
            def free_nodes(nodes, busy):
                return {n for n in nodes if n not in busy}
        """,
        "yarn/scheduler.py": """
            from ..cluster.pool import free_nodes

            def place(nodes, busy, launch):
                for node in free_nodes(nodes, busy):
                    launch(node)
        """})
    full = analyze_paths([tree])
    assert [f.code for f in full.new] == ["MR201"]
    sink_only = analyze_paths([tree], report_only={"yarn/scheduler.py"})
    assert [f.code for f in sink_only.new] == ["MR201"]
    helper_only = analyze_paths([tree], report_only={"cluster/pool.py"})
    assert helper_only.new == []
    # Stale detection is meaningless against a scoped report.
    assert sink_only.stale_baseline == []


# -- determinism sanitizer -----------------------------------------------------

#: The registry scenarios the child-process runs cover: a wordcount with a
#: node failure, the serving churn replay with telemetry off and on and its
#: OpenMetrics export, the 1k-node wheel, and the tuner's shared store.
_CHILD_RUN = ("scale-1k", "serving-churn", "tuner-store",
              "wordcount-node-failure")


def test_scenario_digest_is_stable_in_process():
    """Both in-process passes match the committed digests: this pins the
    child-run scenarios, and its second pass shows no state survives a
    run."""
    from repro.analysis.sanitize import child_digests

    from .pins import committed_digests
    committed = committed_digests()
    for run in child_digests(_CHILD_RUN):
        assert run == {name: committed[name] for name in _CHILD_RUN}


def test_sanitizer_passes_across_hash_seeds(monkeypatch):
    from repro.analysis import sanitize, scenarios
    monkeypatch.setattr(scenarios, "SCENARIOS", {
        name: scenarios.SCENARIOS[name] for name in _CHILD_RUN})
    lines = []
    assert sanitize.run_sanitizer((1, 2), echo=lines.append) == 0
    assert [line.split()[1] for line in lines[1:]] == list(_CHILD_RUN)


def test_sanitizer_names_the_scenario_that_depends_on_the_hash_seed(
        monkeypatch):
    from repro.analysis import sanitize

    def children(hash_seeds, names):
        runs = [{"steady": {"observable": "a", "self_cost": "b"},
                 "leaky": {"observable": "a", "self_cost": str(seed)}}
                for seed in hash_seeds]
        return [[run, run] for run in runs]

    monkeypatch.setattr(sanitize, "_run_children", children)
    lines = []
    assert sanitize.run_sanitizer((1, 2), echo=lines.append) == 1
    failures = [line for line in lines if line.startswith("FAIL")]
    assert failures == ["FAIL leaky: self_cost depends on PYTHONHASHSEED "
                        "(hash-order leak — see rule MR102)"]


def test_sanitizer_reports_an_in_process_repeat_as_cross_run_state(
        monkeypatch):
    from repro.analysis import sanitize, scenarios

    runs = []

    def counted():
        runs.append(None)
        return scenarios.Outcome(str(len(runs)).encode(), b"")

    def children(hash_seeds, names):
        fresh = []
        for _ in hash_seeds:
            runs.clear()  # a fresh process
            fresh.append(sanitize.child_digests(names))
        return fresh

    monkeypatch.setattr(scenarios, "SCENARIOS", {"counted": counted})
    monkeypatch.setattr(sanitize, "_run_children", children)
    lines = []
    assert sanitize.run_sanitizer((1, 2), echo=lines.append) == 1
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL counted: observable moved on an in-process repeat under "
        f"PYTHONHASHSEED={seed} (cross-run state — see rule MR105)"
        for seed in (1, 2)]


# -- same-timestamp race sanitizer ---------------------------------------------

def _tie_order(n=12, priority=None):
    """Fire ``n`` same-instant events; return the callback order."""
    from repro.simulation.core import Environment
    from repro.simulation.events import NORMAL, Event

    env = Environment()
    fired = []
    for i in range(n):
        ev = Event(env)
        ev._value = None
        ev.callbacks.append(lambda _e, i=i: fired.append(i))
        env.schedule_at(ev, 1.0,
                        priority=NORMAL if priority is None else priority)
    env.run(until=2.0)
    return fired


def _timeout_tie_order(n=12):
    """Fire ``n`` same-instant ``env.timeout`` events; return the callback
    order."""
    from repro.simulation.core import Environment

    env = Environment()
    fired = []
    for i in range(n):
        env.timeout(1.0).callbacks.append(lambda _e, i=i: fired.append(i))
    env.run()
    return fired


def _succeed_tie_order(n=12):
    """Trigger ``n`` events with ``succeed()`` from one callback, all on
    that callback's instant; return their callback order."""
    from repro.simulation.core import Environment
    from repro.simulation.events import Event

    env = Environment()
    fired = []

    def fan_out(_event):
        for i in range(n):
            ev = Event(env)
            ev.callbacks.append(lambda _e, i=i: fired.append(i))
            ev.succeed()

    env.timeout(1.0).callbacks.append(fan_out)
    env.run()
    return fired


def test_permuted_ties_reorders_ties_and_restores_on_exit():
    from repro.analysis.sanitize import permuted_ties

    assert _tie_order() == list(range(12))  # insertion order by default
    with permuted_ties(1):
        permuted = _tie_order()
    assert sorted(permuted) == list(range(12))  # nothing lost or duplicated
    assert permuted != list(range(12))
    # Deterministic per seed; class-level patch fully undone on exit.
    with permuted_ties(1):
        assert _tie_order() == permuted
    assert _tie_order() == list(range(12))


@pytest.mark.parametrize("tie_order", [_timeout_tie_order,
                                       _succeed_tie_order])
def test_permuted_ties_reorders_timeouts_and_succeeded_events(tie_order):
    """Ties made by ``env.timeout`` and by ``Event.succeed()`` permute
    too: every kernel push goes through the patched scheduling calls."""
    from repro.analysis.sanitize import permuted_ties

    assert tie_order() == list(range(12))
    with permuted_ties(1):
        permuted = tie_order()
    assert sorted(permuted) == list(range(12))
    assert permuted != list(range(12))
    with permuted_ties(1):
        assert tie_order() == permuted
    assert tie_order() == list(range(12))


def test_permuted_ties_keeps_priority_classes_apart():
    """Only same-(time, priority) events permute: an URGENT event still
    fires before every NORMAL one, a DEFERRED one still fires after."""
    from repro.analysis.sanitize import permuted_ties
    from repro.simulation.core import Environment
    from repro.simulation.events import DEFERRED, URGENT, Event

    with permuted_ties(2):
        env = Environment()
        fired = []

        def arm(tag, priority):
            ev = Event(env)
            ev._value = None
            ev.callbacks.append(lambda _e, tag=tag: fired.append(tag))
            env.schedule_at(ev, 1.0, priority=priority)

        arm("deferred", DEFERRED)
        for i in range(5):
            arm(i, 1)  # NORMAL
        arm("urgent", URGENT)
        env.run(until=2.0)
    assert fired[0] == "urgent"
    assert fired[-1] == "deferred"
    assert sorted(fired[1:-1]) == list(range(5))


def test_race_sanitizer_reports_a_tie_order_dependent_scenario(monkeypatch):
    """Observables and wheel ticks must hold under permuted ties; the
    kernel's own series may move."""
    from repro.analysis import sanitize, scenarios
    from repro.simulation.core import Environment

    def first_of_a_tie():
        env = Environment()
        fired = []
        for tag in "ab":
            env.timeout(1.0).callbacks.append(lambda _e, tag=tag: fired.append(tag))
        env.run()
        return fired[0].encode()

    monkeypatch.setattr(scenarios, "SCENARIOS", {
        "decision": lambda: scenarios.Outcome(first_of_a_tie(), b""),
        "wheel": lambda: scenarios.Outcome(
            b"", b'{"ticks": "' + first_of_a_tie() + b'"}'),
        "kernel-series": lambda: scenarios.Outcome(
            b"", b"kernel_events_total " + first_of_a_tie() + b"\n"),
    })
    lines = []
    assert sanitize.run_race_sanitizer((1, 2), echo=lines.append) == 1
    moved = {line.split()[1] + line.split()[2] for line in lines
             if line.startswith("FAIL")}
    assert moved == {"decision:observables", "wheel:self-cost"}
    assert any(line.startswith("OK kernel-series") for line in lines)
