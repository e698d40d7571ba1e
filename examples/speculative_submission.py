#!/usr/bin/env python3
"""Anatomy of a speculative submission (paper §III-C, Figure 6).

Walks through the six steps of MRapid's submission framework with live
introspection: pool state, dual launch, profiler snapshots, the Eq. 2/3
decision, the kill, and the history record — then shows the pre-decision
path and what happens when the pool is exhausted.

Run:  python examples/speculative_submission.py
"""

from repro.config import MRapidConfig, a3_cluster
from repro.core import MODE_UPLUS, JobProfiler, build_mrapid_cluster
from repro.core.submit import submit
from repro.mapreduce import SimJobSpec
from repro.workloads import WORDCOUNT_PROFILE


def speculate(cluster, spec):
    """One SpeculativeExecutor run; its process value is the whole outcome."""
    proc = submit(cluster, spec, "speculative")
    cluster.env.run(until=proc)
    return proc.value


def main() -> None:
    cluster = build_mrapid_cluster(a3_cluster(4))
    framework = cluster.mrapid_framework

    print("step 1 — proxy + AM pool at cluster start")
    print(f"  pool size: {len(framework.slaves)} warm AMs on nodes "
          f"{sorted(s.node_id for s in framework.slaves)}")

    paths = cluster.load_input_files("/logs/day1", 4, 10.0)
    spec = SimJobSpec("log-scan", tuple(paths), WORDCOUNT_PROFILE,
                      signature="log-scan")

    print("step 2 — pre-decision: consult history")
    known = framework.decision_maker.pre_decision(spec.signature)
    print(f"  history says: {known!r} (first run, so launch both)")

    print("step 3-6 — dual launch, profile, evaluate, kill slower")
    outcome = speculate(cluster, spec)
    decision = outcome.decision
    print(f"  decision at t={outcome.decision_time:.1f}s: "
          f"t_u={decision.t_u:.1f}s t_d={decision.t_d:.1f}s -> "
          f"kill {outcome.killed_mode}")
    print(f"  winner {outcome.winner_mode}: {outcome.winner.elapsed:.1f}s "
          f"(maps on {sorted(outcome.winner.nodes_used())})")

    snap = JobProfiler(outcome.winner).snapshot()
    print(f"  profiler record: {snap.maps_finished}/{snap.maps_total} maps, "
          f"avg t^m={snap.avg_map_compute_s:.1f}s, "
          f"s^i={snap.avg_input_mb:.1f} MB, s^o={snap.avg_output_mb:.1f} MB")

    print("re-submission — the pre-decision now answers directly")
    outcome2 = speculate(cluster, spec)
    print(f"  from_history={outcome2.from_history}, mode={outcome2.winner_mode}, "
          f"{outcome2.winner.elapsed:.1f}s (no dual-launch overhead)")

    print("pool exhaustion — a 1-AM pool serializes concurrent jobs")
    small = build_mrapid_cluster(a3_cluster(4), mrapid=MRapidConfig(am_pool_size=1))
    fw = small.mrapid_framework
    specs = []
    for i in range(2):
        p = small.load_input_files(f"/logs/burst{i}", 2, 10.0)
        specs.append(SimJobSpec(f"burst-{i}", tuple(p), WORDCOUNT_PROFILE))
    handles = [fw.submit(s, MODE_UPLUS) for s in specs]
    small.env.run(until=handles[-1].proc)
    r0, r1 = handles[0].proc.value, handles[1].proc.value
    print(f"  job0 AM start t={r0.am_start_time:.1f}s, "
          f"job1 AM start t={r1.am_start_time:.1f}s "
          f"(job1 waited for the pooled AM to free up)")


if __name__ == "__main__":
    main()
