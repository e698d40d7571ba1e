"""Sensitivity benches: heartbeat interval and kernel scalability."""

from repro.config import HadoopConfig, a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster, run_job
from repro.experiments.figures import wordcount_input
from repro.simulation import Environment


def test_heartbeat_interval_sensitivity(benchmark):
    """Stock pays per-heartbeat latency; D+ is immune (same-heartbeat)."""

    def sweep():
        rows = []
        for hb in (0.5, 1.0, 3.0):
            conf = HadoopConfig(nm_heartbeat_s=hb, am_heartbeat_s=hb)
            stock = build_stock_cluster(a3_cluster(4), conf=conf)
            base = run_job(stock, wordcount_input(4, 10.0)(stock),
                           "distributed").elapsed
            mrapid = build_mrapid_cluster(a3_cluster(4), conf=conf)
            dplus = run_job(mrapid, wordcount_input(4, 10.0)(mrapid),
                            "dplus").elapsed
            rows.append((hb, base, dplus))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nheartbeat  stock-dist   D+")
    for hb, base, dplus in rows:
        print(f"{hb:8.1f}s {base:10.1f}s {dplus:6.1f}s")
    by_hb = {hb: (base, dplus) for hb, base, dplus in rows}
    # Slower heartbeats hurt stock measurably more than D+.
    stock_delta = by_hb[3.0][0] - by_hb[0.5][0]
    dplus_delta = by_hb[3.0][1] - by_hb[0.5][1]
    assert stock_delta > dplus_delta


def test_kernel_scalability_curve(benchmark):
    """Events/second as concurrent process count grows."""

    def run(n_procs):
        env = Environment()
        events = [0]
        env.tracers.append(lambda t, e: events.__setitem__(0, events[0] + 1))

        def worker(env):
            for _ in range(20):
                yield env.timeout(0.5)

        for _ in range(n_procs):
            env.process(worker(env))
        env.run()
        return events[0]

    import time

    def curve():
        rows = []
        for n in (100, 500, 2000):
            t0 = time.perf_counter()
            n_events = run(n)
            dt = time.perf_counter() - t0
            rows.append((n, n_events, n_events / dt))
        return rows

    rows = benchmark.pedantic(curve, rounds=1, iterations=1)
    print("\nprocs   events   events/sec")
    for n, n_events, rate in rows:
        print(f"{n:6d} {n_events:8d} {rate:12,.0f}")
    # Sanity: the kernel clears at least 100k events/second at scale.
    assert rows[-1][2] > 100_000
