"""Beyond-paper ablations over MRapid's design knobs.

DESIGN.md §3 lists the design choices; these benches quantify the ones the
paper leaves unswept: AM-pool sizing under bursty traffic, the disk
seek-penalty assumption, the memory-cache limit, and data-skew sensitivity.
"""

from __future__ import annotations

import dataclasses

from repro.config import MRapidConfig, a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster, run_short_job
from repro.experiments.figures import wordcount_input
from repro.metrics import exact_percentile
from repro.trace import (
    STRATEGY_SPECULATIVE,
    STRATEGY_STOCK,
    default_short_job_mix,
    poisson_trace,
    replay_load,
)
from repro.workloads import WORDCOUNT_PROFILE


def test_am_pool_size_sweep(benchmark):
    """Mean burst response vs pool size (the paper fixes it at 3)."""

    trace = poisson_trace(default_short_job_mix(), rate_per_minute=4.0,
                          duration_s=240.0, seed=21)

    def sweep():
        rows = []
        for pool_size in (1, 2, 3, 5):
            cluster = build_mrapid_cluster(
                a3_cluster(4), mrapid=MRapidConfig(am_pool_size=pool_size))
            report = replay_load(cluster, trace, STRATEGY_SPECULATIVE,
                                 keep_jobs=True)
            sojourns = [row["sojourn_s"] for row in report.per_job]
            rows.append((pool_size, report.sojourn.mean,
                         exact_percentile(sojourns, 95)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\npool  mean_resp  p95")
    for pool, mean, p95 in rows:
        print(f"{pool:>4d} {mean:9.1f}s {p95:6.1f}s")
    # Speculation needs two AMs per job: a 1-AM pool serializes and must be
    # clearly worse than the paper's default of 3.
    means = {pool: mean for pool, mean, _ in rows}
    assert means[1] > means[3]


def test_burst_throughput_stock_vs_mrapid(benchmark):
    """Ad-hoc burst (the paper's §I motivation) end to end."""

    trace = poisson_trace(default_short_job_mix(), rate_per_minute=3.0,
                          duration_s=300.0, seed=13)

    def run():
        stock = build_stock_cluster(a3_cluster(4))
        s_report = replay_load(stock, trace, STRATEGY_STOCK)
        mrapid = build_mrapid_cluster(a3_cluster(4))
        m_report = replay_load(mrapid, trace, STRATEGY_SPECULATIVE)
        return s_report, m_report

    s_report, m_report = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n{s_report.summary()}\n{m_report.summary()}")
    assert m_report.sojourn.mean < s_report.sojourn.mean


def test_memory_cache_limit_sweep(benchmark):
    """U+ cache limit vs job size: where the spill cliff sits."""

    def sweep():
        rows = []
        for limit in (64.0, 128.0, 256.0, 512.0):
            cluster = build_mrapid_cluster(
                a3_cluster(4), mrapid=MRapidConfig(memory_cache_limit_mb=limit))
            result = run_short_job(cluster, wordcount_input(8, 10.0)(cluster),
                                   "uplus")
            cached = all(m.in_memory_output for m in result.maps)
            rows.append((limit, result.elapsed, cached))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nlimit_mb  elapsed  cached")
    for limit, elapsed, cached in rows:
        print(f"{limit:8.0f} {elapsed:7.1f}s  {cached}")
    # 8 x 10 MB raw output = 136 MB: cached at 256+, spilled at 128 and below.
    by_limit = {limit: cached for limit, _e, cached in rows}
    assert not by_limit[128.0] and by_limit[256.0]


def test_seek_penalty_sensitivity(benchmark):
    """How much of D+'s win rides on the HDD seek-penalty assumption?"""

    def sweep():
        rows = []
        for penalty in (0.0, 0.15, 0.3, 0.6):
            import repro.config as cfg

            original = dict(cfg.INSTANCE_TYPES)
            try:
                for key, inst in list(cfg.INSTANCE_TYPES.items()):
                    cfg.INSTANCE_TYPES[key] = dataclasses.replace(
                        inst, disk_seek_penalty=penalty)
                stock = build_stock_cluster(a3_cluster(4))
                base = __import__("repro.core", fromlist=["run_stock_job"]) \
                    .run_stock_job(stock, wordcount_input(8, 10.0)(stock),
                                   "distributed")
                mrapid = build_mrapid_cluster(a3_cluster(4))
                dplus = run_short_job(mrapid, wordcount_input(8, 10.0)(mrapid),
                                      "dplus")
                gain = (base.elapsed - dplus.elapsed) / base.elapsed * 100
                rows.append((penalty, base.elapsed, dplus.elapsed, gain))
            finally:
                cfg.INSTANCE_TYPES.clear()
                cfg.INSTANCE_TYPES.update(original)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nseek_penalty  stock    D+     gain")
    for penalty, stock_t, dplus_t, gain in rows:
        print(f"{penalty:12.2f} {stock_t:6.1f}s {dplus_t:5.1f}s {gain:6.1f}%")
    gains = {p: g for p, _s, _d, g in rows}
    # D+ wins even on seek-free flash, but spinning disks widen the gap.
    assert gains[0.0] > 0
    assert gains[0.6] > gains[0.0]


def test_compute_skew_sensitivity(benchmark):
    """Straggler sensitivity: U+'s wave structure suffers more from skew."""

    def sweep():
        rows = []
        for skew in (0.0, 0.2, 0.4):
            profile = WORDCOUNT_PROFILE.with_(compute_skew=skew)

            def spec_builder(cluster, profile=profile):
                from repro.mapreduce import SimJobSpec

                paths = cluster.load_input_files("/wc", 8, 10.0)
                return SimJobSpec("wordcount", tuple(paths), profile)

            cluster = build_mrapid_cluster(a3_cluster(4))
            uplus = run_short_job(cluster, spec_builder(cluster), "uplus")
            cluster = build_mrapid_cluster(a3_cluster(4))
            dplus = run_short_job(cluster, spec_builder(cluster), "dplus")
            rows.append((skew, dplus.elapsed, uplus.elapsed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nskew   D+      U+")
    for skew, d, u in rows:
        print(f"{skew:4.1f} {d:6.1f}s {u:6.1f}s")
    assert all(d > 0 and u > 0 for _s, d, u in rows)
