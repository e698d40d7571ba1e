#!/usr/bin/env python3
"""Capacity planning with the cost model: which cluster, which mode?

Public-cloud users pay by the hour (paper §IV-C / Figure 13). Given a
short-job workload profile, this example uses the paper's analytic model
(Equations 1-3) plus simulated runs to answer two planning questions:

1. For a fixed budget, is a few-fat-nodes (A3) or many-thin-nodes (A2)
   cluster faster for my job mix?
2. At how many map tasks does the D+ mode overtake U+ (so the proxy's
   decision maker will flip)?

Run:  python examples/capacity_planning.py
"""

from repro.config import INSTANCE_TYPES, a2_cluster, a3_cluster
from repro.core import (
    EstimatorInputs,
    build_mrapid_cluster,
    crossover_maps,
    estimate_dplus,
    estimate_uplus,
    run_job,
)
from repro.mapreduce import SimJobSpec
from repro.workloads import WORDCOUNT_PROFILE


def analytic_crossover() -> None:
    inst = INSTANCE_TYPES["A3"]
    inputs = EstimatorInputs(
        t_l=2.5,
        t_m=WORDCOUNT_PROFILE.map_cpu_s(10.0),
        s_i=10.0,
        s_o=WORDCOUNT_PROFILE.map_output_mb(10.0),
        d_i=inst.disk_write_mb_s,
        d_o=inst.disk_read_mb_s,
        b_i=inst.network_mb_s,
        n_m=4,
        n_c=15,           # 4 x A3 minus AM slot
        n_u_m=inst.cores, # U+ worker threads
    )
    print("--- Equations 2/3: when does D+ overtake U+? ---")
    print(f"{'maps':>5s} {'t_u':>8s} {'t_d':>8s}  winner")
    for n_m in (1, 2, 4, 8, 16, 32, 64):
        trial = EstimatorInputs(**{**inputs.__dict__, "n_m": n_m})
        t_u, t_d = estimate_uplus(trial), estimate_dplus(trial)
        print(f"{n_m:>5d} {t_u:>7.1f}s {t_d:>7.1f}s  {'U+' if t_u <= t_d else 'D+'}")
    print(f"analytic crossover: n_m = {crossover_maps(inputs)}")


def equal_cost_comparison() -> None:
    a2 = a2_cluster(9)
    a3 = a3_cluster(4)
    print("\n--- equal-budget clusters "
          f"(A2x10 = ${a2.hourly_cost:.2f}/h, A3x5 = ${a3.hourly_cost:.2f}/h) ---")
    print(f"{'#files':>7s} {'mode':>6s} {'A2x10':>8s} {'A3x5':>8s}  cheaper-to-wait")
    for n_files in (4, 8, 16):
        for mode in ("dplus", "uplus"):
            times = {}
            for spec_c, label in ((a2, "A2x10"), (a3, "A3x5")):
                cluster = build_mrapid_cluster(spec_c)
                paths = cluster.load_input_files("/wc", n_files, 10.0)
                job = SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)
                times[label] = run_job(cluster, job, mode).elapsed
            best = min(times, key=times.get)
            print(f"{n_files:>7d} {mode:>6s} {times['A2x10']:>7.1f}s "
                  f"{times['A3x5']:>7.1f}s  {best}")
    print("rule of thumb: one-container U+ always wants the fattest node; "
          "wide D+ jobs want aggregate spindles/NICs")


def main() -> None:
    analytic_crossover()
    equal_cost_comparison()


if __name__ == "__main__":
    main()
