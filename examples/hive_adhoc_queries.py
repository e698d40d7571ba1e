#!/usr/bin/env python3
"""Ad-hoc query burst: the workload that motivates MRapid (paper §I).

Hive/Pig break a complex query into a chain of small MapReduce stages, and
analysts fire many such queries back-to-back. This example simulates a
morning's worth of short stages — mixed WordCount-ish scans, a small sort,
and an aggregation — submitted one after another, and compares:

* stock Hadoop 2.2 (every stage pays AM allocation + launch + heartbeats);
* MRapid with speculative execution (the first occurrence of each stage
  type runs both modes; repeats hit the history and go straight to the
  winner).

Run:  python examples/hive_adhoc_queries.py
"""

from repro.config import a3_cluster
from repro.core.submit import build_cluster, run_job, submit
from repro.mapreduce import SimJobSpec
from repro.workloads import TERASORT_PROFILE, WORDCOUNT_PROFILE

# A small "query plan" mix: (stage name, profile, #files, MB per file).
# Scans dominate (most ad-hoc stages read a few small partitions); a sort
# stage and a couple of tiny aggregations round it out.
QUERY_STAGES = [
    ("scan_clicks", WORDCOUNT_PROFILE, 4, 10.0),
    ("scan_users", WORDCOUNT_PROFILE, 2, 10.0),
    ("sort_sessions", TERASORT_PROFILE, 4, 12.0),
    ("agg_daily", WORDCOUNT_PROFILE, 1, 8.0),
    ("scan_clicks", WORDCOUNT_PROFILE, 4, 10.0),      # repeat: history hit
    ("agg_hourly", WORDCOUNT_PROFILE, 2, 5.0),
    ("sort_sessions", TERASORT_PROFILE, 4, 12.0),     # repeat: history hit
    ("scan_clicks", WORDCOUNT_PROFILE, 4, 10.0),      # repeat: history hit
]


def make_spec(cluster, name, profile, num_files, file_mb, run_index):
    paths = cluster.load_input_files(f"/warehouse/{name}/{run_index}",
                                     num_files, file_mb)
    return SimJobSpec(name, tuple(paths), profile, signature=name)


def run_stock() -> float:
    cluster = build_cluster(a3_cluster(4), "distributed")
    total = 0.0
    print("stock Hadoop:")
    for i, (name, profile, nf, mb) in enumerate(QUERY_STAGES):
        spec = make_spec(cluster, name, profile, nf, mb, i)
        # An admin would enable Uber for tiny stages; emulate that rule of
        # thumb (Hadoop's own uber threshold: few maps, small input).
        mode = "uber" if nf * mb <= 16.0 else "distributed"
        result = run_job(cluster, spec, mode)
        total += result.elapsed
        print(f"  {name:14s} [{mode:11s}] {result.elapsed:6.1f}s")
    return total


def run_mrapid() -> float:
    cluster = build_cluster(a3_cluster(4), "speculative")
    total = 0.0
    print("MRapid (speculative, with history):")
    for i, (name, profile, nf, mb) in enumerate(QUERY_STAGES):
        spec = make_spec(cluster, name, profile, nf, mb, i)
        proc = submit(cluster, spec, "speculative")
        cluster.env.run(until=proc)
        outcome = proc.value  # the SpeculationOutcome, not just the winner
        total += outcome.winner.elapsed
        source = "history" if outcome.from_history else f"killed {outcome.killed_mode}"
        print(f"  {name:14s} [{outcome.winner_mode:5s}] "
              f"{outcome.winner.elapsed:6.1f}s   ({source})")
    return total


def main() -> None:
    stock_total = run_stock()
    mrapid_total = run_mrapid()
    saved = stock_total - mrapid_total
    print(f"\nstock total : {stock_total:7.1f}s")
    print(f"MRapid total: {mrapid_total:7.1f}s")
    print(f"saved       : {saved:7.1f}s "
          f"({100 * saved / stock_total:.0f}% of the analyst's wait)")


if __name__ == "__main__":
    main()
