"""Decision-maker accuracy: does Eq. 2/3 pick the real winner?

The whole point of MRapid's speculation is that the analytic model, fed
with first-wave profiler data, names the right mode. This bench sweeps the
Figure 7/10 configurations, compares the model's pick against the
simulated ground truth, and reports accuracy plus the regret (time lost
when the model is wrong) — the quantity the paper's §III-C protocol bounds
by killing the loser early.
"""

from __future__ import annotations

from repro.config import a3_cluster
from repro.core import (
    EstimatorInputs,
    build_mrapid_cluster,
    estimate_dplus,
    estimate_uplus,
    run_job,
)
from repro.experiments.figures import terasort_input, wordcount_input
from repro.workloads import TERASORT_PROFILE, WORDCOUNT_PROFILE
from repro.workloads.terasort import rows_to_mb


def simulate_both(spec_builder):
    d_cluster = build_mrapid_cluster(a3_cluster(4))
    t_d = run_job(d_cluster, spec_builder(d_cluster), "dplus").elapsed
    u_cluster = build_mrapid_cluster(a3_cluster(4))
    t_u = run_job(u_cluster, spec_builder(u_cluster), "uplus").elapsed
    return t_d, t_u


def model_pick(profile, n_maps, input_mb_per_map):
    inst = a3_cluster(4).instance
    inputs = EstimatorInputs(
        t_l=2.5,
        t_m=profile.map_cpu_s(input_mb_per_map),
        s_i=input_mb_per_map,
        s_o=profile.map_output_mb(input_mb_per_map),
        d_i=inst.disk_write_mb_s,
        d_o=inst.disk_read_mb_s,
        b_i=inst.network_mb_s,
        n_m=n_maps,
        n_c=15,
        n_u_m=inst.cores,
    )
    return ("uplus" if estimate_uplus(inputs) <= estimate_dplus(inputs)
            else "dplus"), inputs


def test_decision_accuracy_over_paper_sweeps(benchmark):
    cases = []
    for n_files in (1, 2, 4, 8, 16):
        cases.append((f"wc {n_files}x10MB", WORDCOUNT_PROFILE,
                      wordcount_input(n_files, 10.0), n_files, 10.0))
    for rows in (100_000, 400_000, 1_600_000):
        mb = rows_to_mb(rows) / 4
        cases.append((f"ts {rows // 1000}k", TERASORT_PROFILE,
                      terasort_input(rows, 4), 4, mb))

    def evaluate():
        results = []
        for label, profile, builder, n_maps, mb_per_map in cases:
            t_d, t_u = simulate_both(builder)
            truth = "uplus" if t_u <= t_d else "dplus"
            pick, _ = model_pick(profile, n_maps, mb_per_map)
            regret = 0.0 if pick == truth else abs(t_d - t_u)
            results.append((label, truth, pick, t_d, t_u, regret))
        return results

    results = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    correct = sum(1 for _l, truth, pick, *_ in results if truth == pick)
    total_regret = sum(r[-1] for r in results)
    print("\ncase          truth   model   t_d     t_u    regret")
    for label, truth, pick, t_d, t_u, regret in results:
        mark = "" if truth == pick else "  <-- wrong"
        print(f"{label:12s}  {truth:6s}  {pick:6s} {t_d:6.1f}s {t_u:6.1f}s "
              f"{regret:5.1f}s{mark}")
    accuracy = correct / len(results)
    print(f"accuracy {correct}/{len(results)} ({accuracy:.0%}), "
          f"total regret {total_regret:.1f}s")
    # The model must be clearly better than a coin flip, and whatever it
    # gets wrong must be near-tie cases (bounded regret).
    assert accuracy >= 0.7
    assert total_regret < 15.0
