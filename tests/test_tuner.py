"""Tuner suite: run-history store, learned estimates, the auto picker, and
the oracle-regret differential harness.

Covers the store's two backends (digest-identical), refusal of foreign
files and newer schemas, concurrent writers in separate processes, Hypothesis properties (ring
bound, crash-reopen round-trip, permutation invariance, EWMA convergence),
the picker's three regimes (analytic byte-for-byte with Eq. 1-3, explore
order, learned argmin), and the regret suite's acceptance criteria.
"""

import hashlib
import os
import sqlite3
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import ServingConfig, TunerConfig, a3_cluster
from repro.core.estimator import EstimatorInputs, analytic_estimates, pick_mode
from repro.metrics import SignatureStats
from repro.serving import AdmissionController
from repro.trace import default_short_job_mix
from repro.tuner import (
    OUTCOME_FAILED,
    OUTCOME_KILLED,
    SOURCE_ANALYTIC,
    SOURCE_EXPLORE,
    SOURCE_LEARNED,
    AutoModePicker,
    RunHistoryStore,
    RunRecord,
    run_regret,
)
from repro.yarn import HFSPScheduler

CANDIDATES = TunerConfig.candidates

SAMPLE_INPUTS = EstimatorInputs(t_l=1.0, t_m=2.0, s_i=10.0, s_o=5.0,
                                d_i=50.0, d_o=80.0, b_i=100.0,
                                n_m=4, n_c=8, n_u_m=4)


def fill(store, records):
    for sig, mode, elapsed in records:
        store.record(RunRecord(sig, mode, elapsed))


# -- store backends ---------------------------------------------------------------


def test_backend_selection(tmp_path):
    assert RunHistoryStore(None).backend == "memory"
    assert RunHistoryStore(":memory:").backend == "memory"
    for fname in ("h.db", "h.json"):
        with RunHistoryStore(str(tmp_path / fname)) as db:
            assert db.backend == "sqlite"


@pytest.mark.parametrize("content", [
    '{"schema_version": 1, "runs": {}}',
    '{"version": 0, "history": []}',
    "x",
], ids=["json", "json-v0", "one-byte"])
def test_foreign_file_is_refused_unchanged(tmp_path, content):
    """A path holding anything but an SQLite database (a JSON history
    file, say) raises, and the file and its directory stay as they were:
    SQLite would otherwise adopt a short file and write into it."""
    path = tmp_path / "history.json"
    path.write_text(content)
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    with pytest.raises(ValueError, match="not an SQLite database"):
        RunHistoryStore(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before
    assert os.listdir(tmp_path) == ["history.json"]


def test_store_rejects_bad_records():
    store = RunHistoryStore(None)
    with pytest.raises(ValueError):
        store.record(RunRecord("sig", "uplus", -1.0))
    with pytest.raises(ValueError):
        store.record(RunRecord("sig", "uplus", 1.0, outcome="exploded"))
    with pytest.raises(ValueError):
        store.record(RunRecord("", "uplus", 1.0))
    with pytest.raises(ValueError):
        RunHistoryStore(None, ring_size=0)


@pytest.mark.parametrize("fname", ["h.db", "h.json"])
def test_store_reopen_round_trip(tmp_path, fname):
    """Write, close, reopen: byte-identical canonical view (durability).
    The suffix selects nothing: every file path is an SQLite store."""
    path = str(tmp_path / fname)
    records = [("scan", "uplus", 4.0), ("scan", "dplus", 7.5),
               ("scan", "uplus", 4.5), ("sort", "stock", 12.0)]
    with RunHistoryStore(path) as store:
        fill(store, records)
        store.record(RunRecord("sort", "uber", 9.0, outcome=OUTCOME_KILLED,
                               input_mb=48.0, am_overhead_s=1.25,
                               phases={"read": 0.5, "compute": 2.0},
                               finished_at=100.0))
        digest = store.digest()
        total = len(store)
    with RunHistoryStore(path) as reopened:
        assert reopened.digest() == digest
        assert len(reopened) == total
        assert [r.elapsed_s for r in reopened.runs("scan", "uplus")] == [4.0, 4.5]
        kept = reopened.runs("sort", "uber")[0]
        assert kept.outcome == OUTCOME_KILLED
        assert kept.phases == {"compute": 2.0, "read": 0.5}


def test_backends_produce_identical_digests(tmp_path):
    records = [("a", "uplus", 3.0), ("a", "uplus", 4.0), ("b", "dplus", 9.0)]
    mem = RunHistoryStore(None)
    with RunHistoryStore(str(tmp_path / "h.db")) as db:
        for store in (mem, db):
            fill(store, records)
        assert mem.digest() == db.digest()


def test_newer_schema_refused_sqlite(tmp_path):
    path = str(tmp_path / "h.db")
    RunHistoryStore(path).close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE meta SET value='99' WHERE key='schema_version'")
    conn.close()
    with pytest.raises(ValueError, match="newer"):
        RunHistoryStore(path)


def test_refresh_sees_other_writers(tmp_path):
    path = str(tmp_path / "h.db")
    with RunHistoryStore(path) as a, RunHistoryStore(path) as b:
        a.record(RunRecord("scan", "uplus", 4.0))
        assert len(b) == 0          # b's cache predates the write
        b.refresh()
        assert len(b) == 1
        assert b.runs("scan", "uplus")[0].elapsed_s == 4.0


_WRITER = """\
import sys
from repro.tuner import RunHistoryStore, RunRecord
path, tag, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
with RunHistoryStore(path, ring_size=256) as store:
    for i in range(n):
        store.record(RunRecord(f"sig-{tag}", "uplus", float(i + 1)))
"""


def test_concurrent_writers_lose_nothing(tmp_path):
    """Two separate processes hammering one store file: every record lands
    (WAL journaling plus the busy timeout)."""
    path, per_proc = str(tmp_path / "h.db"), 20
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    procs = [subprocess.Popen(
        [sys.executable, "-c", _WRITER, path, tag, str(per_proc)],
        env=env, stderr=subprocess.PIPE) for tag in ("a", "b")]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    with RunHistoryStore(path) as store:
        assert len(store) == 2 * per_proc
        for tag in ("a", "b"):
            kept = store.runs(f"sig-{tag}", "uplus")
            assert [r.elapsed_s for r in kept] == [float(i + 1)
                                                   for i in range(per_proc)]


class _LockedOnce:
    """A connection whose first WAL pragma reports the lock SQLite raises,
    without calling the busy handler, when two processes open one fresh
    file at once."""

    def __init__(self, conn):
        self._conn = conn
        self.refused = 0

    def execute(self, sql, *args):
        if sql == "PRAGMA journal_mode=WAL" and not self.refused:
            self.refused += 1
            raise sqlite3.OperationalError("database is locked")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc):
        return self._conn.__exit__(*exc)


def test_locked_wal_pragma_is_retried(tmp_path, monkeypatch):
    connect = sqlite3.connect
    opened = []

    def locked_once(*args, **kwargs):
        opened.append(_LockedOnce(connect(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", locked_once)
    with RunHistoryStore(str(tmp_path / "h.db")) as store:
        store.record(RunRecord("sig", "uplus", 1.0))
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
    assert [c.refused for c in opened] == [1]
    assert mode == "wal"
    monkeypatch.undo()
    with RunHistoryStore(str(tmp_path / "h.db")) as store:
        assert [r.elapsed_s for r in store.runs("sig", "uplus")] == [1.0]


# -- store properties -------------------------------------------------------------


record_st = st.tuples(st.sampled_from(["a", "b"]),
                      st.sampled_from(["uplus", "dplus"]),
                      st.floats(0.0, 100.0))


@given(st.lists(record_st, max_size=60), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_property_ring_keeps_newest_per_cell(records, ring):
    """Bounded memory: each (signature, mode) cell retains exactly the most
    recent ring_size records, in order."""
    store = RunHistoryStore(None, ring_size=ring)
    tail: dict = {}
    for sig, mode, elapsed in records:
        store.record(RunRecord(sig, mode, elapsed))
        tail.setdefault((sig, mode), []).append(elapsed)
    for (sig, mode), values in tail.items():
        assert [r.elapsed_s for r in store.runs(sig, mode)] == values[-ring:]
    assert len(store) == sum(min(len(v), ring) for v in tail.values())


@given(st.lists(record_st, max_size=20), st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_property_reopen_round_trip(records, ring):
    """Crash-reopen: whatever was recorded (including ring evictions), a
    fresh open reconstructs the identical canonical state."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.db")
        with RunHistoryStore(path, ring_size=ring) as store:
            fill(store, records)
            digest = store.digest()
            view = store.to_dict()
        with RunHistoryStore(path, ring_size=ring) as reopened:
            assert reopened.digest() == digest
            assert reopened.to_dict() == view


# -- learned estimates ------------------------------------------------------------


def test_estimator_uses_successes_only():
    store = RunHistoryStore(None)
    picker = AutoModePicker(store, TunerConfig())
    assert store.stats("sig", "uplus").ewma is None
    store.record(RunRecord("sig", "uplus", 50.0, outcome=OUTCOME_KILLED))
    store.record(RunRecord("sig", "uplus", 70.0, outcome=OUTCOME_FAILED))
    assert store.stats("sig", "uplus").count == 0
    assert store.stats("sig", "uplus").ewma is None
    assert picker.best("sig") is None
    store.record(RunRecord("sig", "uplus", 4.0))
    assert store.stats("sig", "uplus").count == 1
    assert store.stats("sig", "uplus").ewma == 4.0
    assert picker.best("sig") == "uplus"


@given(st.floats(0.1, 1e4), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_property_ewma_converges_on_constant_signal(value, n):
    """On a deterministic cluster repeats are identical: the EWMA must equal
    the truth after any number of identical samples."""
    store = RunHistoryStore(None)
    fill(store, [("sig", "uplus", value)] * n)
    stats = store.stats("sig", "uplus")
    assert stats.ewma == pytest.approx(value, rel=1e-9)
    assert stats.mean_s == pytest.approx(value, rel=1e-9)


@given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=8),
       st.lists(st.floats(0.1, 100.0), max_size=8),
       st.lists(st.booleans(), max_size=16))
@settings(max_examples=60, deadline=None)
def test_property_estimates_permutation_invariant_across_signatures(
        ours, other, pattern):
    """Interleaving another signature's records anywhere in the store never
    moves this signature's estimates (cells are independent)."""
    alone = RunHistoryStore(None)
    fill(alone, [("sig", "uplus", v) for v in ours])

    mixed = RunHistoryStore(None)
    a, b = list(ours), list(other)
    for take_ours in pattern + [True] * len(a) + [False] * len(b):
        if take_ours and a:
            mixed.record(RunRecord("sig", "uplus", a.pop(0)))
        elif not take_ours and b:
            mixed.record(RunRecord("noise", "dplus", b.pop(0)))

    sa, sm = alone.stats("sig", "uplus"), mixed.stats("sig", "uplus")
    assert (sm.count, sm.ewma, sm.mean_s) == (sa.count, sa.ewma, sa.mean_s)


@given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_property_mean_is_order_invariant(values):
    fwd, rev = RunHistoryStore(None), RunHistoryStore(None)
    fill(fwd, [("sig", "uplus", v) for v in values])
    fill(rev, [("sig", "uplus", v) for v in reversed(values)])
    assert fwd.stats("sig", "uplus").mean_s == \
        pytest.approx(rev.stats("sig", "uplus").mean_s, rel=1e-9)


def test_best_breaks_ties_by_candidate_order():
    store = RunHistoryStore(None)
    fill(store, [("sig", "uber", 5.0), ("sig", "dplus", 5.0)])
    assert AutoModePicker(store, TunerConfig()).best("sig") == "dplus"


# -- auto picker ------------------------------------------------------------------


inputs_st = st.builds(
    EstimatorInputs,
    t_l=st.floats(0.0, 10.0), t_m=st.floats(0.0, 60.0),
    s_i=st.floats(0.0, 256.0), s_o=st.floats(0.0, 256.0),
    d_i=st.floats(1.0, 200.0), d_o=st.floats(1.0, 200.0),
    b_i=st.floats(1.0, 500.0), n_m=st.integers(1, 64),
    n_c=st.integers(1, 64), n_u_m=st.integers(1, 16))


@given(inputs_st)
@settings(max_examples=80, deadline=None)
def test_property_no_store_is_pick_mode_byte_for_byte(inputs):
    """The metamorphic gate: with no history attached the picker IS the
    paper's Eq. 1-3 decision maker — same mode, analytic provenance."""
    decision = AutoModePicker().decide("sig", inputs)
    assert decision.mode == pick_mode(inputs)
    assert decision.source == SOURCE_ANALYTIC
    assert decision.estimates == analytic_estimates(inputs)


def test_picker_explores_each_candidate_then_commits():
    store = RunHistoryStore(None)
    picker = AutoModePicker(store, TunerConfig())
    elapsed = {"stock": 9.0, "dplus": 6.0, "uplus": 7.0, "uber": 8.0}
    seen = []
    for _ in CANDIDATES:
        decision = picker.decide("sig", SAMPLE_INPUTS)
        assert decision.source == SOURCE_EXPLORE
        seen.append(decision.mode)
        picker.observe("sig", decision.mode, elapsed[decision.mode])
    # One sweep over every candidate, cheapest-analytic-first.
    assert sorted(seen) == sorted(CANDIDATES)
    analytic = analytic_estimates(SAMPLE_INPUTS)
    assert seen == sorted(seen, key=lambda m: (analytic[m],
                                               CANDIDATES.index(m)))
    # Trained: argmin of the measured times, and it sticks.
    for _ in range(3):
        decision = picker.decide("sig", SAMPLE_INPUTS)
        assert decision.source == SOURCE_LEARNED
        assert decision.mode == "dplus"
    assert picker.exploit_mode("sig", SAMPLE_INPUTS) == "dplus"
    assert picker.report()["sources"] == {"explore": 4, "learned": 3}
    store.close()


def test_picker_failed_runs_do_not_graduate_a_candidate():
    """A killed/failed run must not count toward train_runs: the picker
    re-explores the same arm until a *success* lands."""
    store = RunHistoryStore(None)
    picker = AutoModePicker(store, TunerConfig())
    first = picker.decide("sig", SAMPLE_INPUTS)
    picker.observe("sig", first.mode, 5.0, outcome=OUTCOME_FAILED)
    second = picker.decide("sig", SAMPLE_INPUTS)
    assert second.source == SOURCE_EXPLORE
    assert second.mode == first.mode
    store.close()


def test_picker_signatures_learn_independently():
    store = RunHistoryStore(None)
    picker = AutoModePicker(store, TunerConfig())
    for mode in CANDIDATES:
        picker.observe("hot", mode, 5.0 if mode == "uber" else 50.0)
    hot = picker.decide("hot", SAMPLE_INPUTS)
    cold = picker.decide("cold", SAMPLE_INPUTS)
    assert hot.source == SOURCE_LEARNED and hot.mode == "uber"
    assert cold.source == SOURCE_EXPLORE
    store.close()


# -- warm starts ------------------------------------------------------------------


def warm_store():
    store = RunHistoryStore(None)
    store.record(RunRecord("scan", "uplus", 4.0))
    store.record(RunRecord("scan", "uplus", 6.0))
    store.record(RunRecord("scan", "dplus", 9.0, outcome=OUTCOME_KILLED))
    store.record(RunRecord("sort", "stock", 12.0, outcome=OUTCOME_FAILED))
    return store


def test_hfsp_warm_start_seeds_successes_only():
    sched = HFSPScheduler(training_samples=2)
    sched.sizes["live"] = SignatureStats()
    sched.sizes["live"].observe(99.0)
    warm_store().warm(sched.sizes)
    assert sched.sizes["scan"].count == 2
    assert sched.sizes["scan"].mean_s == pytest.approx(5.0)
    assert sched.is_trained("scan")
    assert "sort" not in sched.sizes          # only a failed run recorded
    assert sched.sizes["live"].total_s == 99.0  # live stats never overwritten


def test_serving_size_estimator_warm_start():
    controller = AdmissionController(ServingConfig())
    controller.job_finished(0, "live", 3.0)
    warm_store().warm(controller.sizes)
    # EWMA replay of scan's successes: 4.0 seeded, then 0.4*6 + 0.6*4.
    assert controller.size_estimate_s("scan") == pytest.approx(4.8)
    assert controller.sizes["scan"].count == 2
    assert controller.size_estimate_s("sort") == ServingConfig.initial_guess_s
    assert controller.size_estimate_s("live") == 3.0


def test_warm_seeds_each_table_with_its_own_stats():
    """Warming two tables from one store never shares a learner: HFSP and
    admission keep folding their own samples into separate stats."""
    store = warm_store()
    hfsp, admission = {}, {}
    store.warm(hfsp)
    store.warm(admission)
    hfsp["scan"].observe(100.0)
    assert admission["scan"].count == 2
    assert admission["scan"].ewma == pytest.approx(4.8)


# -- mode dispatch ----------------------------------------------------------------


def test_run_auto_job_without_framework_is_refused():
    """A cluster with no MRapid framework refuses the MRapid candidate the
    picker decides; an unknown candidate is refused either way."""
    from repro.core.submit import run_job
    from repro.mapreduce.spec import SimJobSpec
    from repro.trace import STRATEGY_STOCK, build_trace_cluster
    from repro.tuner.picker import run_auto_job
    from repro.workloads.base import WORDCOUNT_PROFILE

    cluster = build_trace_cluster(a3_cluster(2), strategy=STRATEGY_STOCK)
    paths = cluster.load_input_files("/in", 1, 8.0)
    spec = SimJobSpec("agg", tuple(paths), WORDCOUNT_PROFILE, signature="agg")
    picker = AutoModePicker()
    with pytest.raises(ValueError, match="SubmissionFramework"):
        run_auto_job(cluster, spec, picker, num_files=1, file_mb=8.0)
    with pytest.raises(ValueError, match="unknown mode"):
        run_job(cluster, spec, "turbo")


# -- oracle regret (the differential acceptance suite) ----------------------------


@pytest.fixture(scope="module")
def agg_regret():
    template = next(t for t in default_short_job_mix() if t.name == "agg")
    return run_regret(a3_cluster(4), template, rounds=6)


def test_regret_oracle_table_is_complete(agg_regret):
    assert set(agg_regret.static_s) == set(CANDIDATES)
    assert agg_regret.oracle_s == min(agg_regret.static_s.values())
    assert agg_regret.static_s[agg_regret.oracle_mode] == agg_regret.oracle_s


def test_regret_explores_once_then_tracks_the_oracle(agg_regret):
    sweep = [r.mode for r in agg_regret.rounds[:len(CANDIDATES)]]
    assert sorted(sweep) == sorted(CANDIDATES)
    assert all(r.source == SOURCE_EXPLORE
               for r in agg_regret.rounds[:len(CANDIDATES)])
    for r in agg_regret.trained_rounds(len(CANDIDATES)):
        assert r.source == SOURCE_LEARNED
        assert r.mode == agg_regret.oracle_mode
        assert r.regret_s == pytest.approx(0.0, abs=1e-9)


def test_regret_exploit_policy_monotone_and_zero(agg_regret):
    regrets = agg_regret.exploit_regrets()
    assert all(a >= b - 1e-9 for a, b in zip(regrets, regrets[1:]))
    assert regrets[-1] == pytest.approx(0.0, abs=1e-9)
    assert all(r >= -1e-9 for r in regrets)


def test_regret_auto_beats_every_non_oracle_static(agg_regret):
    """Cumulative regret: auto pays a bounded exploration cost, static
    non-oracle policies pay linearly — by round 6 auto undercuts them all."""
    for mode in CANDIDATES:
        if mode == agg_regret.oracle_mode:
            continue
        assert agg_regret.cumulative_regret_s < \
            agg_regret.static_cumulative_regret_s(mode)


def test_regret_shared_store_skips_retraining():
    """A second regret run over the same durable store starts trained: no
    exploration rounds, zero regret from round 0 (repeats -> 0)."""
    template = next(t for t in default_short_job_mix() if t.name == "agg")
    with RunHistoryStore(None) as store:
        first = run_regret(a3_cluster(4), template, rounds=4, store=store)
        second = run_regret(a3_cluster(4), template, rounds=2, store=store)
    assert any(r.source == SOURCE_EXPLORE for r in first.rounds)
    assert all(r.source == SOURCE_LEARNED for r in second.rounds)
    assert second.cumulative_regret_s == pytest.approx(0.0, abs=1e-9)
