"""Beyond-the-figures benchmarks: estimator model, kernel, engine, speculation.

These cover the design choices DESIGN.md calls out: the analytic model's
crossover, the DES kernel's raw event throughput, the functional engine's
record throughput, speculation's overhead against an oracle, and the D+
scheduler's cost at larger cluster sizes.
"""

from __future__ import annotations

from repro.config import ClusterSpec, INSTANCE_TYPES, a3_cluster
from repro.core import (
    EstimatorInputs,
    build_mrapid_cluster,
    crossover_maps,
    estimate_dplus,
    estimate_uplus,
    run_job,
)
from repro.core.submit import submit
from repro.experiments.figures import wordcount_input
from repro.simulation import Environment
from repro.workloads import generate_files, run_wordcount


def test_estimator_model_crossover(benchmark):
    """Eq. 2/3: sweep n_m and report the U+/D+ crossover the decision maker
    would act on (paper: past ~2 waves of maps D+ wins)."""

    def sweep():
        inputs = EstimatorInputs(t_l=2.5, t_m=6.0, s_i=10.0, s_o=3.0,
                                 d_i=48.0, d_o=60.0, b_i=30.0,
                                 n_m=4, n_c=16, n_u_m=4)
        rows = []
        for n_m in (1, 2, 4, 8, 16, 32, 64):
            trial = EstimatorInputs(**{**inputs.__dict__, "n_m": n_m})
            rows.append((n_m, estimate_uplus(trial), estimate_dplus(trial)))
        return rows, crossover_maps(inputs)

    rows, crossover = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("n_m   t_u(Eq.2)  t_d(Eq.3)")
    for n_m, t_u, t_d in rows:
        print(f"{n_m:<5d} {t_u:8.1f}  {t_d:8.1f}")
    print(f"estimator crossover at n_m = {crossover}")
    assert crossover is not None and crossover > 4


def test_kernel_event_throughput(benchmark):
    """Raw DES kernel speed: ping-pong timeouts (events/second)."""

    N = 20_000

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(N):
                yield env.timeout(0.001)

        env.process(ticker(env))
        env.run()
        return env.now

    result = benchmark(run)
    assert result > 0


def test_engine_wordcount_throughput(benchmark):
    """Functional engine throughput on a real 0.5 MB corpus."""

    files = generate_files(4, 0.125, seed=3)

    def run():
        return run_wordcount(files, parallel_maps=2)

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sum(out.as_dict().values()) > 0


def test_speculation_overhead_vs_oracle(benchmark):
    """Speculative submit vs directly running the eventual winner.

    The paper accepts 'the overhead of running both D+ and U+ modes at the
    short initial stage'; this bench quantifies it.
    """

    def speculate():
        cluster = build_mrapid_cluster(a3_cluster(4))
        proc = submit(cluster, wordcount_input(4, 10.0)(cluster), "speculative")
        cluster.env.run(until=proc)
        return proc.value

    outcome = benchmark.pedantic(speculate, rounds=1, iterations=1)

    oracle_cluster = build_mrapid_cluster(a3_cluster(4))
    oracle_spec = wordcount_input(4, 10.0)(oracle_cluster)
    oracle = run_job(oracle_cluster, oracle_spec, outcome.winner_mode)

    overhead = outcome.winner.elapsed - oracle.elapsed
    print(f"\nspeculation winner={outcome.winner_mode} "
          f"elapsed={outcome.winner.elapsed:.2f}s oracle={oracle.elapsed:.2f}s "
          f"overhead={overhead:.2f}s")
    # Contention from the doomed twin costs something, but far less than
    # picking the wrong mode would (the loser ran ~40+% slower).
    assert overhead < 0.5 * oracle.elapsed


def test_dplus_scheduler_scales_with_cluster_size(benchmark):
    """D+ allocation stays sub-millisecond-ish per container at 64 nodes."""

    spec = ClusterSpec(INSTANCE_TYPES["A3"], 64, racks=4, name="A3x64")

    def run():
        cluster = build_mrapid_cluster(spec)
        job = wordcount_input(48, 10.0)(cluster)
        return run_job(cluster, job, "dplus")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.maps) == 48
    assert len(result.nodes_used()) >= 40  # spread wide
