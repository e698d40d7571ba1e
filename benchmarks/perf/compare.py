"""Compare two full benchmark records written by ``run.py --json``.

Usage, from the repository root::

    python3 benchmarks/perf/compare.py A.json B.json

For every workload and end-to-end metric it prints A's and B's values,
B's change relative to A, and the metric's bound from ``BENCHMARK.json``,
labelled:

* ``unresolved`` — either side's own uncertainty for the metric (see
  :func:`own_spread`) is wider than the bound, so the two runs cannot
  tell a change of that size from noise;
* ``regressed`` — B is worse than A by more than the bound;
* ``ok`` — otherwise.

It also checks, per workload, that the simulated outcome is identical when
both records used the same seed. The exit status is 1 when a pair
regressed or an outcome differs.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def notch(values: list[float]) -> float:
    """Half-width of the median's 95 % notch, 1.58 × IQR / √n, as a share."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return 1.58 * (q3 - q1) / math.sqrt(len(values)) / median


def own_spread(record: dict) -> dict:
    """How far each end-to-end value could move within its run, as a share.

    ``wall_s`` and ``setup_s`` are medians of n scaled timings, so their
    spread is the median's notch. ``peak_rss_mb`` is a single reading.
    """
    return {"wall_s": notch(record["wall_s"]["values"]),
            "setup_s": notch(record["setup_s"]["values"]),
            "peak_rss_mb": 0.0}


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Table rows and whether any pair regressed or any outcome differs."""
    rows = [f"{'workload':14} {'metric':12} {'A':>10} {'B':>10} {'delta':>8} "
            f"{'bound':>6}  label"]
    bad = False
    same_seed = a["seed"] == b["seed"]
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        ra, rb = a["workloads"].get(name), b["workloads"].get(name)
        if not (ra and rb and ra["correct"] and rb["correct"]):
            rows.append(f"{name:14} missing or failed its checks on one side")
            bad = True
            continue
        spread_a, spread_b = own_spread(ra), own_spread(rb)
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va = ra["end_to_end"][key]["value"]
            vb = rb["end_to_end"][key]["value"]
            delta = vb / va - 1.0
            worse = delta if metric["better"] == "lower" else -delta
            if max(spread_a[key], spread_b[key]) > bound:
                label = "unresolved"
            elif worse > bound:
                label = "regressed"
                bad = True
            else:
                label = "ok"
            rows.append(f"{name:14} {key:12} {va:10.4f} {vb:10.4f} {delta:+8.2%} "
                        f"{bound:6.0%}  {label}")
        if same_seed:
            identical = ra["digest"] == rb["digest"] and ra["outcome"] == rb["outcome"]
            bad = bad or not identical
            rows.append(f"{name:14} simulated outcome "
                        f"{'identical' if identical else 'DIFFERS'}")
    return rows, bad


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    rows, bad = compare(a, b, json.loads(BENCHMARK.read_text()))
    print("\n".join(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
