#!/usr/bin/env python3
"""Chaos on a short-job cluster: node death, task retry, re-replication.

Walks through the full failure story while a D+ job runs:

1. a DataNode dies mid-map-phase (its containers die with it);
2. the AM retries the lost attempts on surviving nodes;
3. HDFS re-replicates the dead node's blocks in the background;
4. a straggler node is rescued by in-job speculative attempts.

Run:  python examples/cluster_failures.py
"""

from repro.config import HadoopConfig, a3_cluster
from repro.core.submit import build_cluster, run_job, submit
from repro.mapreduce import SimJobSpec
from repro.workloads import WORDCOUNT_PROFILE


def node_failure_with_retry() -> None:
    print("=== scenario 1: node death mid-job (D+ mode) ===")
    cluster = build_cluster(a3_cluster(4), "dplus")
    paths = cluster.load_input_files("/logs", 8, 10.0)
    spec = SimJobSpec("scan", tuple(paths), WORDCOUNT_PROFILE)
    job = submit(cluster, spec, "dplus")

    def chaos(env):
        yield env.timeout(7.0)
        pool_nodes = {s.node_id for s in cluster.mrapid_framework.slaves}
        victim = next(n for n in ("dn3", "dn2", "dn1") if n not in pool_nodes)
        print(f"  t={env.now:.1f}s  KILLING {victim} "
              f"(hosts {len(cluster.rm.node_managers[victim].running)} containers, "
              f"{len(cluster.namenode.blocks_on_node(victim))} block replicas)")
        cluster.fail_node(victim)

    cluster.env.process(chaos(cluster.env))
    cluster.env.run(until=job)
    result = job.value
    retried = [m.task_id for m in result.maps if ".a" in m.task_id]
    print(f"  job finished in {result.elapsed:.1f}s despite the failure")
    print(f"  retried attempts: {retried}")
    done = cluster.replication_manager.replications_done
    print(f"  HDFS re-replicated {len(done)} blocks onto survivors")
    clean = build_cluster(a3_cluster(4), "dplus")
    paths = clean.load_input_files("/logs", 8, 10.0)
    baseline = run_job(
        clean, SimJobSpec("scan", tuple(paths), WORDCOUNT_PROFILE), "dplus")
    print(f"  (clean-run baseline: {baseline.elapsed:.1f}s -> failure cost "
          f"{result.elapsed - baseline.elapsed:.1f}s)")


def straggler_speculation() -> None:
    print("\n=== scenario 2: noisy-neighbour straggler (stock + speculation) ===")
    for speculative in (False, True):
        conf = HadoopConfig(speculative_tasks=speculative,
                            speculative_slowness=1.3)
        cluster = build_cluster(a3_cluster(4), "distributed", conf=conf)
        slow = cluster.topology.node("dn0")
        slow.cpu.set_slowdown(6.0)
        paths = cluster.load_input_files("/wc", 8, 10.0)
        profile = WORDCOUNT_PROFILE.with_(compute_skew=0.0)
        spec = SimJobSpec("wordcount", tuple(paths), profile)
        result = run_job(cluster, spec, "distributed")
        duplicates = [m.task_id for m in result.maps if "." in m.task_id]
        label = "with" if speculative else "without"
        print(f"  {label:8s} task speculation: {result.elapsed:6.1f}s "
              f"(winning duplicate attempts: {duplicates or 'none'})")


def main() -> None:
    node_failure_with_retry()
    straggler_speculation()


if __name__ == "__main__":
    main()
