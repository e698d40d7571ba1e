"""Command-line interface.

::

    python -m repro figures                 # list reproducible figures
    python -m repro figure figure7          # regenerate one figure (chart+table)
    python -m repro report [out.md]         # full EXPERIMENTS.md
    python -m repro run --workload wordcount --files 4 --mb 10 --mode uplus
    python -m repro trace --rate 3 --minutes 5   # burst replay, stock vs MRapid
    python -m repro profile --workload wordcount --mode stock
                                            # span-trace ONE job -> Perfetto
    python -m repro validate                # run the functional engine checks

``figure`` and ``report`` accept ``--jobs N`` to fan independent
data points out over N worker processes (default: all CPUs); results are
byte-identical to a serial run.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from .config import a2_cluster, a3_cluster
from .core import (
    build_mrapid_cluster,
    build_stock_cluster,
    run_short_job,
    run_speculative,
    run_stock_job,
)
from .mapreduce import SimJobSpec
from .workloads import TERASORT_PROFILE, WORDCOUNT_PROFILE, pi_profile

WORKLOADS = {"wordcount": WORDCOUNT_PROFILE, "terasort": TERASORT_PROFILE}


def _cluster_spec(name: str):
    if name == "a3":
        return a3_cluster(4)
    if name == "a2":
        return a2_cluster(9)
    raise SystemExit(f"unknown cluster {name!r} (use a3 or a2)")


def _all_figures() -> dict:
    from .experiments import ALL_FIGURES
    from .experiments.chaos import CHAOS_FIGURES
    from .experiments.extended import EXTENDED_FIGURES
    from .experiments.loadsweep import LOAD_FIGURES
    from .experiments.overhead import OBSERVE_FIGURES
    from .experiments.regretsweep import REGRET_FIGURES
    from .experiments.slosweep import SLO_FIGURES

    return {**ALL_FIGURES, **EXTENDED_FIGURES, **CHAOS_FIGURES,
            **OBSERVE_FIGURES, **LOAD_FIGURES, **SLO_FIGURES,
            **REGRET_FIGURES}


def cmd_figures(_args) -> int:
    for name, builder in _all_figures().items():
        doc = (builder.__doc__ or "").strip().splitlines()
        print(f"{name:10s} {doc[0] if doc else ''}")
    return 0


def _set_jobs(args) -> None:
    from .experiments.parallel import set_default_jobs

    set_default_jobs(getattr(args, "jobs", None))


def cmd_figure(args) -> int:
    from .experiments.plots import render_figure

    builder = _all_figures().get(args.name)
    if builder is None:
        print(f"unknown figure {args.name!r}; try `python -m repro figures`",
              file=sys.stderr)
        return 2
    _set_jobs(args)
    fig = builder()
    print(fig.render_table())
    print()
    print(render_figure(fig))
    return 0


def cmd_report(args) -> int:
    from .experiments.report import generate_report

    _set_jobs(args)
    text = generate_report()
    with open(args.output, "w") as f:
        f.write(text)
    print(f"wrote {args.output}")
    return 0


def cmd_run(args) -> int:
    spec_builder_cluster = _cluster_spec(args.cluster)
    if args.workload == "pi":
        profile = pi_profile(args.pi_samples, args.files)
    else:
        profile = WORKLOADS.get(args.workload)
        if profile is None:
            raise SystemExit(f"unknown workload {args.workload!r}")

    if args.mode == "auto" and args.history_db:
        # Tuned run: the repro.tuner picker chooses the mode from the
        # durable run history (Eq. 1–3 while the signature is cold).
        from .trace import STRATEGY_DPLUS, build_trace_cluster
        from .tuner import AutoModePicker, RunHistoryStore, run_auto_job

        cluster = build_trace_cluster(spec_builder_cluster,
                                      strategy=STRATEGY_DPLUS)
        paths = cluster.load_input_files("/cli", args.files, args.mb)
        spec = SimJobSpec(args.workload, tuple(paths), profile)
        with RunHistoryStore(args.history_db) as store:
            picker = AutoModePicker(store)
            result, decision = run_auto_job(cluster, spec, picker,
                                            num_files=args.files,
                                            file_mb=args.mb)
            print(f"auto     : picked {decision.mode} ({decision.source}; "
                  f"store now {len(store)} records)")
        return _print_run_result(args, result)

    if args.mode in ("distributed", "uber", "auto"):
        cluster = build_stock_cluster(spec_builder_cluster)
    else:
        cluster = build_mrapid_cluster(spec_builder_cluster)
    paths = cluster.load_input_files("/cli", args.files, args.mb)
    spec = SimJobSpec(args.workload, tuple(paths), profile)

    if args.mode in ("distributed", "uber"):
        result = run_stock_job(cluster, spec, args.mode)
    elif args.mode == "auto":
        from .mapreduce import MODE_AUTO, JobClient

        result = JobClient(cluster).run(spec, MODE_AUTO)
    elif args.mode in ("dplus", "uplus"):
        result = run_short_job(cluster, spec, args.mode)
    elif args.mode == "speculative":
        outcome = run_speculative(cluster, spec)
        result = outcome.winner
        print(f"speculation winner: {outcome.winner_mode} "
              f"(killed {outcome.killed_mode})")
    else:
        raise SystemExit(f"unknown mode {args.mode!r}")

    return _print_run_result(args, result)


def _print_run_result(args, result) -> int:
    if args.json:
        from .history import JobHistoryServer

        server = JobHistoryServer()
        server.record(result)
        print(server.to_json())
        return 0
    print(f"job      : {result.job_name} [{result.mode}]")
    print(f"elapsed  : {result.elapsed:.2f}s  (AM overhead {result.am_overhead:.2f}s, "
          f"{result.num_waves} wave(s))")
    print(f"maps     : {len(result.maps)} on nodes {sorted(result.nodes_used())}")
    print(f"locality : {result.locality_counts()}")
    return 0


#: ``repro trace --mode`` values -> replay strategies.
TRACE_MODES = {
    "stock": "stock-auto",
    "dplus": "mrapid-dplus",
    "uplus": "mrapid-uplus",
    "speculative": "mrapid-speculative",
    "auto": "mrapid-auto",
}


def _print_load_report(report, as_json: bool, detailed: bool) -> None:
    import json as _json

    if as_json:
        print(_json.dumps(report.to_dict(), indent=1, sort_keys=True))
        return
    print(report.summary())
    if detailed:
        print(f"  sojourn     {report.sojourn}")
        print(f"  slowdown    {report.slowdown}")
        print(f"  queue depth {report.queue_depth} "
              f"(peak {report.peak_in_flight})")
        decisions = ", ".join(f"{k}: {v}" for k, v in sorted(report.decisions.items()))
        print(f"  decisions   {decisions or '-'}")
        print(f"  makespan    {report.makespan_s:.1f}s  "
              f"killed {report.killed}  failed {report.failed}")
        if report.slo:
            slo = report.slo
            att = slo.get("attainment", {})
            print(f"  slo         attainment {att.get('fraction', 1.0):.1%} "
                  f"({att.get('hits', 0)}/{att.get('total', 0)})  "
                  f"admitted {slo.get('admitted', 0)}  "
                  f"rejected {slo.get('rejected', 0)}  "
                  f"shed {slo.get('shed', 0)}  "
                  f"retries {slo.get('retries', 0)}")
            scaler = slo.get("autoscaler")
            if scaler:
                print(f"  autoscaler  +{scaler['scale_up_events']} "
                      f"-{scaler['scale_down_events']} events, "
                      f"{scaler['node_hours']:.3f} node-hours, "
                      f"{scaler['final_billable_nodes']} billable nodes")
        if report.tuner:
            srcs = report.tuner.get("sources", {})
            pretty = ", ".join(f"{k}: {srcs[k]}" for k in sorted(srcs))
            store = (f"  (store {report.tuner.get('store_records', 0)} records)"
                     if report.tuner.get("learning") else "  (no history db)")
            print(f"  tuner       {pretty or '-'}{store}")
        if report.telemetry:
            tel = report.telemetry
            print(f"  telemetry   {tel['scrapes']} scrapes x "
                  f"{tel['series']} series "
                  f"(every {tel['scrape_interval_s']:g}s sim, "
                  f"{tel.get('alerts_fired', 0)} alerts)")
            for row in tel.get("alerts", []):
                resolved = (f", resolved {row['resolved_at_s']:.1f}s"
                            if "resolved_at_s" in row else "")
                print(f"    alert {row['rule']} [{row['severity']}] "
                      f"at {row['at_s']:.1f}s{resolved}: {row['message']}")


def _serving_from_args(args):
    """``ServingConfig`` (or None) from the shared --slo/--autoscale flags."""
    from .config import ServingConfig

    if not args.slo:
        if args.autoscale is not None:
            raise SystemExit("--autoscale requires --slo")
        return None
    kwargs = dict(latency_deadline_s=args.deadline, slots_per_node=2,
                  initial_guess_s=12.0)
    if args.autoscale is not None:
        lo, hi = args.autoscale
        if not 1 <= lo <= hi:
            raise SystemExit("--autoscale needs 1 <= MIN <= MAX")
        kwargs.update(autoscale=True, min_nodes=lo, max_nodes=hi)
    return ServingConfig(**kwargs)


def _replay_inputs(args, telemetry=None, tuner=None) -> tuple:
    """``(spec, conf, mix, trace, duration_s, fault_plan, baselines)`` from
    the replay flags ``trace`` and ``metrics`` share (plus ``--trace-file``)."""
    from .config import HadoopConfig
    from .trace import (
        default_serving_mix,
        default_short_job_mix,
        parse_trace_file,
        poisson_trace,
        template_baselines,
    )

    conf = HadoopConfig(am_resource_fraction=args.am_fraction,
                        serving=_serving_from_args(args),
                        telemetry=telemetry, tuner=tuner)
    mix = default_serving_mix() if args.slo else default_short_job_mix()
    spec = _cluster_spec(args.cluster)
    if getattr(args, "trace_file", None):
        with open(args.trace_file) as f:
            trace = parse_trace_file(f.read(), mix)
        duration_s = trace[-1].arrival_s if trace else 0.0
    else:
        duration_s = args.minutes * 60.0
        trace = poisson_trace(mix, args.rate, duration_s, seed=args.seed)
    fault_plan = None
    if args.fault_plan:
        from .faults.plan import named_plan

        try:
            fault_plan = named_plan(args.fault_plan, duration_s,
                                    seed=args.fault_seed)
        except ValueError as exc:
            raise SystemExit(str(exc))
    baselines = template_baselines(spec, mix, conf=conf)
    return spec, conf, mix, trace, duration_s, fault_plan, baselines


def cmd_trace(args) -> int:
    from .config import TelemetryConfig, TunerConfig
    from .trace import STRATEGY_SPECULATIVE, STRATEGY_STOCK, run_load

    if args.history_db and args.mode != "auto":
        raise SystemExit("--history-db requires --mode auto")
    spec, conf, mix, trace, duration_s, fault_plan, baselines = _replay_inputs(
        args, telemetry=TelemetryConfig() if args.telemetry else None,
        tuner=TunerConfig(history_db=args.history_db) if args.history_db else None)
    if args.trace_file and not args.json:
        print(f"{len(trace)} job arrivals from {args.trace_file} "
              f"(scheduler {args.scheduler})")
    elif not args.json:
        print(f"{len(trace)} job arrivals over {args.minutes} min "
              f"(rate {args.rate}/min, seed {args.seed}, "
              f"scheduler {args.scheduler})")

    strategies = ([TRACE_MODES[args.mode]] if args.mode
                  else [STRATEGY_STOCK, STRATEGY_SPECULATIVE])
    for strategy in strategies:
        report = run_load(spec, mix, args.rate, duration_s,
                          scheduler=args.scheduler, strategy=strategy,
                          conf=conf, seed=args.seed, keep_jobs=args.json,
                          baselines=baselines, trace=trace,
                          fault_plan=fault_plan)
        _print_load_report(report, args.json, args.report)
    return 0


def cmd_metrics(args) -> int:
    """Replay a trace with telemetry on and export the scraped series."""
    from .config import TelemetryConfig
    from .trace import (
        SCHEDULER_CAPACITY,
        build_trace_cluster,
        default_queue_of,
        replay_load,
    )

    try:
        telemetry_conf = TelemetryConfig(scrape_interval_s=args.interval)
    except ValueError as exc:
        raise SystemExit(str(exc))
    spec, conf, _, trace, _, fault_plan, baselines = _replay_inputs(
        args, telemetry=telemetry_conf)

    strategy = TRACE_MODES[args.mode]
    # replay_load installs telemetry from conf; building the cluster here
    # (instead of via run_load) keeps the handle for the exporters below.
    cluster = build_trace_cluster(spec, scheduler=args.scheduler,
                                  strategy=strategy, conf=conf)
    tracer = None
    if args.perfetto:
        from .observe.tracer import install_tracer

        tracer = install_tracer(cluster)
    queue_of = default_queue_of if args.scheduler == SCHEDULER_CAPACITY else None
    report = replay_load(cluster, trace, strategy, baselines=baselines,
                         queue_of=queue_of, fault_plan=fault_plan)
    telemetry = cluster.env.telemetry
    assert telemetry is not None

    if args.format == "openmetrics":
        payload = telemetry.openmetrics()
    elif args.format == "jsonl":
        payload = telemetry.jsonl()
    else:
        section = telemetry.report_section()
        lines = [report.summary(),
                 f"{section['scrapes']} scrapes x {section['series']} series "
                 f"every {section['scrape_interval_s']:g}s sim "
                 f"({section['retained_samples']} samples retained, "
                 f"~{section['ring_bytes']} ring bytes)"]
        for row in section.get("alerts", []):
            resolved = (f", resolved {row['resolved_at_s']:.1f}s"
                        if "resolved_at_s" in row else "")
            lines.append(f"alert {row['rule']} [{row['severity']}] "
                         f"at {row['at_s']:.1f}s{resolved}: {row['message']}")
        if not section.get("alerts"):
            lines.append("no alerts fired")
        payload = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(payload)
        print(f"wrote {args.format} export to {args.output}")
    else:
        sys.stdout.write(payload)

    if args.perfetto:
        import json as _json

        from .observe.export import to_trace_events, validate_trace_events

        obj = to_trace_events(tracer, trace_name="metrics",
                              telemetry=telemetry)
        problems = validate_trace_events(obj)
        if problems:
            for problem in problems:
                print(f"trace validation: {problem}", file=sys.stderr)
            return 1
        with open(args.perfetto, "w") as f:
            _json.dump(obj, f)
        print(f"wrote Perfetto trace with counter tracks to {args.perfetto}")
    return 0


def cmd_spark(args) -> int:
    """Run the §VI Spark-migration ladder on a simulated cluster."""
    from .core import ChainStage, run_chain
    from .sparklite import SparkLiteRunner, SparkStage
    from .workloads import WORDCOUNT_PROFILE

    def mr_plan(cluster):
        raw = cluster.load_input_files("/in", args.files, args.mb)
        return [ChainStage("scan", WORDCOUNT_PROFILE, tuple(raw)),
                ChainStage("agg", WORDCOUNT_PROFILE, ("@scan",))]

    def spark_plan(cluster):
        raw = cluster.load_input_files("/in", args.files, args.mb)
        return [SparkStage("scan", WORDCOUNT_PROFILE.map_cpu_s_per_mb,
                           WORDCOUNT_PROFILE.map_output_ratio, inputs=tuple(raw)),
                SparkStage("agg", 0.15, 0.2, parents=("scan",))]

    stock = build_stock_cluster(_cluster_spec(args.cluster))
    print(f"MR chain / stock   : {run_chain(stock, mr_plan(stock), 'stock').elapsed:6.1f}s")
    mrapid = build_mrapid_cluster(_cluster_spec(args.cluster))
    print(f"MR chain / MRapid  : {run_chain(mrapid, mr_plan(mrapid), 'speculative').elapsed:6.1f}s")
    cold_c = build_stock_cluster(_cluster_spec(args.cluster))
    cold = SparkLiteRunner(cold_c, num_executors=args.executors).run(spark_plan(cold_c))
    print(f"Spark-lite cold    : {cold.elapsed:6.1f}s (startup {cold.startup_overhead:.1f}s)")
    warm_c = build_mrapid_cluster(_cluster_spec(args.cluster))
    warm = SparkLiteRunner(warm_c, num_executors=args.executors,
                           warm_pool=True).run(spark_plan(warm_c))
    print(f"Spark-lite warm    : {warm.elapsed:6.1f}s (startup {warm.startup_overhead:.1f}s)")
    return 0


def cmd_chaos(args) -> int:
    """Run one job (or the whole figure) under an injected fault scenario."""
    from .experiments.chaos import (
        CHAOS_MODES,
        SCENARIOS,
        figureC1_runtime_under_faults,
        run_under_faults,
    )

    if args.scenario == "all":
        # Scenario names are categorical, so render_figure would just
        # repeat the table; print it once.
        print(figureC1_runtime_under_faults().render_table())
        return 0

    plans = dict(SCENARIOS)
    make_plan = plans.get(args.scenario)
    if make_plan is None:
        print(f"unknown scenario {args.scenario!r}; one of "
              f"{['all'] + list(plans)}", file=sys.stderr)
        return 2
    modes = CHAOS_MODES if args.mode == "all" else (args.mode,)
    for mode in modes:
        point = run_under_faults(mode, make_plan().with_seed(args.seed))
        faults = ", ".join(f"{t:.1f}s {kind} {victim}"
                           for t, kind, victim in point.timeline) or "none"
        print(f"{mode:20s} {point.elapsed:7.2f}s  "
              f"resubmits={point.resubmits}  faults: {faults}")
    return 0


def cmd_profile(args) -> int:
    """Run one traced job; print the overhead breakdown + Gantt, write traces.

    Not to be confused with ``repro trace``, which *replays a workload
    trace* (a Poisson arrival schedule of many jobs); ``profile`` runs a
    single job with the :mod:`repro.observe` span tracer attached and
    attributes its runtime to overhead classes.
    """
    import json

    from .observe import run_profiled, validate_trace_events

    report = run_profiled(args.workload, args.mode, num_files=args.files,
                          file_mb=args.mb, seed=args.seed)
    print(report.render())

    perfetto = report.to_perfetto()
    problems = validate_trace_events(perfetto)
    if problems:
        for problem in problems[:10]:
            print(f"trace validation: {problem}", file=sys.stderr)
        return 1
    with open(args.output, "w") as f:
        json.dump(perfetto, f, indent=1)
    breakdown_path = args.breakdown
    with open(breakdown_path, "w") as f:
        json.dump(report.breakdown_dict(), f, indent=2)
    print(f"\nwrote {args.output} (load in ui.perfetto.dev or "
          f"chrome://tracing) and {breakdown_path}")
    return 0


def cmd_tune(args) -> int:
    """Auto-tune U+ parallelism for a representative WordCount job."""
    from .core import tune_maps_per_vcore
    from .experiments.figures import wordcount_input

    report = tune_maps_per_vcore(
        _cluster_spec(args.cluster), wordcount_input(args.files, args.mb),
        candidates=tuple(args.candidates))
    print(report.table())
    return 0


def cmd_validate(_args) -> int:
    from .workloads import (
        estimate_pi,
        generate_files,
        reference_wordcount,
        run_terasort,
        run_wordcount,
        teragen,
        teravalidate,
    )

    files = generate_files(2, 0.05, seed=1)
    wc = run_wordcount(files, parallel_maps=2)
    ok_wc = wc.as_dict() == reference_wordcount(files)
    print(f"wordcount matches oracle : {ok_wc}")

    rows = teragen(5000, seed=3, num_files=4)
    ok_ts, total = teravalidate(run_terasort(rows, num_reduces=4))
    print(f"terasort globally sorted : {ok_ts} ({total} rows)")

    pi = estimate_pi(4, 50_000)
    ok_pi = abs(pi - math.pi) < 5e-3
    print(f"pi estimate converges    : {ok_pi} (pi ~ {pi:.4f})")
    return 0 if (ok_wc and ok_ts and ok_pi) else 1


def cmd_lint(args) -> int:
    from .analysis import main as analysis_main

    argv = list(args.paths)
    if args.json:
        argv.append("--json")
    if args.rules:
        argv.extend(["--rules", args.rules])
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.fail_stale:
        argv.append("--fail-stale")
    if args.changed_only:
        argv.append("--changed-only")
        argv.extend(["--base", args.base])
    if args.verbose:
        argv.append("--verbose")
    if args.list_rules:
        argv.append("--list-rules")
    if args.sanitize:
        argv.append("--sanitize")
    if args.sanitize_races:
        argv.append("--sanitize-races")
    if args.sanitize or args.sanitize_races:
        argv.extend(["--seeds", str(args.seeds[0]), str(args.seeds[1])])
    return analysis_main(argv)


def _add_replay_flags(p: argparse.ArgumentParser) -> None:
    """The replay flags ``trace`` and ``metrics`` share."""
    p.add_argument("--rate", type=float, default=3.0, help="jobs per minute")
    p.add_argument("--minutes", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--cluster", default="a3", choices=["a3", "a2"])
    p.add_argument("--scheduler", default="fifo",
                   choices=["fifo", "capacity", "hfsp"],
                   help="RM scheduler for the replay cluster")
    p.add_argument("--am-fraction", type=float, default=0.3,
                   help="maximum-am-resource-percent analog; <1 enables AM "
                        "admission control so scheduling order matters")
    p.add_argument("--slo", action="store_true",
                   help="serving mode: SLO-classed mix (scans/aggs latency, "
                        "sorts batch), size-based admission control, "
                        "overload degradation, per-job outcomes")
    p.add_argument("--deadline", type=float, default=75.0,
                   help="latency-class deadline in seconds (with --slo)")
    p.add_argument("--autoscale", nargs=2, type=int, default=None,
                   metavar=("MIN", "MAX"),
                   help="with --slo: reactive autoscaling between MIN and "
                        "MAX nodes (queue depth + SLO attainment signals)")
    p.add_argument("--fault-plan", default=None, metavar="NAME",
                   help="inject a named fault plan into the replay "
                        "(churn, crash, gray)")
    p.add_argument("--fault-seed", type=int, default=23,
                   help="seed for the named fault plan's victim selection")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MRapid (IPPS 2017) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="list reproducible figures").set_defaults(fn=cmd_figures)

    p = sub.add_parser("figure", help="regenerate one figure")
    p.add_argument("name")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for data points (default: all CPUs)")
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("report", help="write the EXPERIMENTS.md report")
    p.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for data points (default: all CPUs)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("run", help="run one job on a simulated cluster")
    p.add_argument("--workload", default="wordcount",
                   choices=["wordcount", "terasort", "pi"])
    p.add_argument("--files", type=int, default=4)
    p.add_argument("--mb", type=float, default=10.0)
    p.add_argument("--pi-samples", type=float, default=400e6)
    p.add_argument("--mode", default="speculative",
                   choices=["distributed", "uber", "auto", "dplus", "uplus",
                            "speculative"])
    p.add_argument("--cluster", default="a3", choices=["a3", "a2"])
    p.add_argument("--history-db", default=None, metavar="FILE",
                   help="with --mode auto: durable run-history store "
                        "(SQLite) the tuner learns mode choices from "
                        "across invocations")
    p.add_argument("--json", action="store_true",
                   help="print the history-server phase breakdown as JSON")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("trace", help="replay a bursty short-job trace")
    _add_replay_flags(p)
    p.add_argument("--trace-file", default=None, metavar="FILE",
                   help="replay '<arrival_s> <template>' lines from FILE "
                        "instead of generating Poisson arrivals")
    p.add_argument("--mode", default=None, choices=sorted(TRACE_MODES),
                   help="submission strategy (default: compare stock and "
                        "speculative)")
    p.add_argument("--history-db", default=None, metavar="FILE",
                   help="with --mode auto: durable run-history store the "
                        "tuner learns per-signature mode choices from; "
                        "omit for pure Eq. 1-3 decisions")
    p.add_argument("--json", action="store_true",
                   help="full streaming report as JSON, with a per-job "
                        "decision column")
    p.add_argument("--report", action="store_true",
                   help="print sojourn/slowdown/queue-depth percentiles and "
                        "mode decisions")
    p.add_argument("--telemetry", action="store_true",
                   help="sample the telemetry registry during the replay; "
                        "adds scrape/alert rows to --report and a "
                        "'telemetry' section to --json")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="replay a trace with telemetry on and export the time series")
    _add_replay_flags(p)
    p.add_argument("--mode", default="stock", choices=sorted(TRACE_MODES),
                   help="submission strategy (default: stock)")
    p.add_argument("--interval", type=float, default=5.0,
                   help="scrape cadence in simulated seconds")
    p.add_argument("--format", default="summary",
                   choices=["openmetrics", "jsonl", "summary"],
                   help="export format (default: summary to stdout)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write the export to FILE instead of stdout")
    p.add_argument("--perfetto", default=None, metavar="FILE",
                   help="also trace the replay and write Perfetto JSON with "
                        "telemetry counter tracks to FILE")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("spark", help="run the §VI Spark-migration ladder")
    p.add_argument("--files", type=int, default=4)
    p.add_argument("--mb", type=float, default=10.0)
    p.add_argument("--executors", type=int, default=3)
    p.add_argument("--cluster", default="a3", choices=["a3", "a2"])
    p.set_defaults(fn=cmd_spark)

    p = sub.add_parser("chaos", help="runtime under injected faults (Figure C1)")
    p.add_argument("--scenario", default="all",
                   choices=["all", "healthy", "worker-crash", "am-crash",
                            "gray-disk"])
    p.add_argument("--mode", default="all",
                   choices=["all", "Hadoop-Distributed", "MRapid-D+",
                            "MRapid-U+", "MRapid-Speculative"])
    p.add_argument("--seed", type=int, default=17)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "profile",
        help="trace one job: overhead breakdown, Gantt, Perfetto JSON")
    p.add_argument("--workload", default="wordcount",
                   choices=["wordcount", "terasort", "pi"])
    p.add_argument("--mode", default="stock",
                   choices=["stock", "distributed", "uber", "dplus", "uplus"])
    p.add_argument("--files", type=int, default=4)
    p.add_argument("--mb", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output", default="profile.perfetto.json",
                   help="Chrome trace-event JSON path")
    p.add_argument("--breakdown", default="profile.breakdown.json",
                   help="machine-readable attribution JSON path")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("tune", help="auto-tune U+ maps-per-vcore by simulation")
    p.add_argument("--files", type=int, default=8)
    p.add_argument("--mb", type=float, default=10.0)
    p.add_argument("--candidates", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--cluster", default="a3", choices=["a3", "a2"])
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser(
        "lint",
        help="domain-specific static analysis (rules MR102-MR105 and "
             "MR201-MR203) and the dynamic determinism and race sanitizers")
    p.add_argument("paths", nargs="*",
                   help="files/directories to check (default: src/repro)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable findings")
    p.add_argument("--rules", metavar="CODES",
                   help="comma-separated rule codes (e.g. MR102,MR105)")
    p.add_argument("--no-baseline", action="store_true",
                   help="report baselined findings too")
    p.add_argument("--update-baseline", action="store_true",
                   help="accept the current findings into lint_baseline.json "
                        "(also prunes stale entries)")
    p.add_argument("--fail-stale", action="store_true",
                   help="fail if the baseline has entries no finding matches")
    p.add_argument("--changed-only", action="store_true",
                   help="report findings only for files changed vs --base")
    p.add_argument("--base", default="HEAD", metavar="REF",
                   help="git ref for --changed-only (default: HEAD)")
    p.add_argument("--verbose", action="store_true",
                   help="also print baselined findings")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--sanitize", action="store_true",
                   help="run the scenario twice under different "
                        "PYTHONHASHSEED values and diff the digests")
    p.add_argument("--sanitize-races", action="store_true",
                   help="permute same-(time, priority) event dispatch order "
                        "and verify the observable metrics are invariant")
    p.add_argument("--seeds", nargs=2, type=int, default=(1, 2),
                   metavar=("A", "B"),
                   help="seeds for --sanitize / --sanitize-races")
    p.set_defaults(fn=cmd_lint)

    sub.add_parser("validate",
                   help="run the real workloads and verify their outputs"
                   ).set_defaults(fn=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
