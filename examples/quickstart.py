#!/usr/bin/env python3
"""Quickstart: run one short WordCount job in every mode and compare.

This is the 60-second tour of the library:

1. build a simulated 4-DataNode Azure A3 cluster (the paper's testbed);
2. load a small input (4 x 10 MB) into simulated HDFS;
3. run the job on stock Hadoop (distributed and Uber modes) and on MRapid
   (D+ and U+ modes);
4. let MRapid's speculative executor pick the winner automatically.

Run:  python examples/quickstart.py
"""

from repro.config import a3_cluster
from repro.core.submit import build_cluster, run_job, submit
from repro.mapreduce import SimJobSpec
from repro.workloads import WORDCOUNT_PROFILE


def wordcount_spec(cluster, num_files=4, file_mb=10.0):
    paths = cluster.load_input_files("/input/wc", num_files, file_mb)
    return SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)


def speculate(cluster, spec):
    """Run ``spec`` speculatively; the process value is the executor's
    SpeculationOutcome (``run_job`` would return just the winner)."""
    proc = submit(cluster, spec, "speculative")
    cluster.env.run(until=proc)
    return proc.value


def main() -> None:
    print("=== stock Hadoop 2.2 ===")
    for mode in ("distributed", "uber"):
        cluster = build_cluster(a3_cluster(4), mode)
        result = run_job(cluster, wordcount_spec(cluster), mode)
        print(f"  {mode:12s} {result.elapsed:6.1f}s   "
              f"(AM overhead {result.am_overhead:.1f}s, "
              f"{result.num_waves} map wave(s), "
              f"nodes used: {sorted(result.nodes_used())})")

    print("=== MRapid ===")
    for mode in ("dplus", "uplus"):
        cluster = build_cluster(a3_cluster(4), mode)
        result = run_job(cluster, wordcount_spec(cluster), mode)
        print(f"  {mode:12s} {result.elapsed:6.1f}s   "
              f"(AM overhead {result.am_overhead:.1f}s, "
              f"locality: {result.locality_counts()})")

    print("=== MRapid speculative execution (paper Figure 6) ===")
    cluster = build_cluster(a3_cluster(4), "speculative")
    spec = wordcount_spec(cluster)
    outcome = speculate(cluster, spec)
    decision = outcome.decision
    print(f"  launched both modes, killed {outcome.killed_mode!r} at "
          f"t={outcome.decision_time:.1f}s")
    if decision is not None:
        print(f"  estimator said t_u={decision.t_u:.1f}s vs t_d={decision.t_d:.1f}s "
              f"(Equations 2/3)")
    print(f"  winner: {outcome.winner_mode} in {outcome.winner.elapsed:.1f}s")

    # A second submission of the same job skips the dual launch entirely.
    again = speculate(cluster, spec)
    print(f"  re-run: mode {again.winner_mode} from history="
          f"{again.from_history}, {again.winner.elapsed:.1f}s")


if __name__ == "__main__":
    main()
