"""Tests for the experiment harness, plots, export, report, and CLI."""

import json

import pytest

from repro.config import a3_cluster
from repro.experiments.export import (
    export_figures_json,
    figure_from_dict,
    figure_to_dict,
    job_result_to_dict,
)
from repro.experiments.figures import table2, wordcount_input
from repro.experiments.harness import (
    ALL_MODES,
    HADOOP_DIST,
    MRAPID_DPLUS,
    FigureResult,
    PaperClaim,
    Series,
    improvement_pct,
    run_mode,
)
from repro.experiments.plots import grouped_bars, line_chart, render_figure, share_bars


def toy_figure():
    s1 = Series("A", [1, 2], [10.0, 20.0])
    s2 = Series("B", [1, 2], [5.0, 25.0])
    return FigureResult("Fig X", "toy", "n", {"A": s1, "B": s2},
                        claims=[PaperClaim("A@1 vs B@1", 50.0, 50.0)])


# -- Series / FigureResult -----------------------------------------------------

def test_series_at_lookup():
    s = Series("x", [1, 2, 4], [1.0, 2.0, 4.0])
    assert s.at(2) == 2.0
    with pytest.raises(ValueError):
        s.at(3)


def test_improvement_computation():
    fig = toy_figure()
    assert fig.improvement("A", "B", 1) == pytest.approx(50.0)
    assert fig.improvement("A", "B", 2) == pytest.approx(-25.0)
    assert improvement_pct(10.0, 5.0) == pytest.approx(50.0)
    assert improvement_pct(0.0, 5.0) == 0.0


def test_claim_tolerance():
    assert PaperClaim("x", 40.0, 25.0).holds        # within default 20
    assert not PaperClaim("x", 40.0, 15.0).holds
    assert PaperClaim("sign", 1.0, 1.0, unit="bool", tolerance=0.0).holds


def test_render_table_contains_all_series_and_claims():
    text = toy_figure().render_table()
    assert "Fig X" in text and "A" in text and "B" in text
    assert "HOLDS" in text


def test_run_mode_rejects_unknown():
    with pytest.raises(ValueError):
        run_mode("nope", a3_cluster(4), wordcount_input(1, 10.0))


def test_run_mode_each_canonical_mode_executes():
    for mode in ALL_MODES:
        result = run_mode(mode, a3_cluster(2), wordcount_input(1, 5.0))
        assert result.elapsed > 0


# -- plots ----------------------------------------------------------------------

def test_grouped_bars_renders_every_series():
    text = grouped_bars(toy_figure())
    assert text.count("A ") >= 2 and "25.0" in text
    assert "█" in text


def test_share_bars_sorted_descending():
    series = {
        "small": Series("small", ["share"], [10.0]),
        "big": Series("big", ["share"], [90.0]),
    }
    fig = FigureResult("F", "shares", "technique", series)
    text = share_bars(fig)
    assert text.index("big") < text.index("small")


def test_render_figure_dispatch():
    assert "seconds" in render_figure(toy_figure())
    series = {"a": Series("a", ["share"], [100.0])}
    assert "%" in render_figure(FigureResult("F", "t", "technique", series))


def test_line_chart_shapes():
    text = line_chart([1, 2, 3, 4, 5], height=4, title="ramp")
    assert "ramp" in text
    assert "5.0" in text and "1.0" in text
    assert line_chart([]) == "(empty series)"


def test_table2_render_table_attribute_axis():
    fig = table2()
    assert "price_per_hr" in fig.render_table()
    assert "Table II" in render_figure(fig)


# -- export -----------------------------------------------------------------------

def test_figure_json_round_trip():
    fig = toy_figure()
    data = figure_to_dict(fig)
    clone = figure_from_dict(json.loads(json.dumps(data)))
    assert clone.figure_id == fig.figure_id
    assert clone.series["A"].y == fig.series["A"].y
    assert clone.claims[0].holds == fig.claims[0].holds


def test_export_figures_json_parses():
    payload = export_figures_json({"toy": toy_figure()})
    parsed = json.loads(payload)
    assert parsed["toy"]["title"] == "toy"


def test_job_result_export_has_phases():
    result = run_mode(HADOOP_DIST, a3_cluster(2), wordcount_input(2, 5.0))
    data = job_result_to_dict(result)
    assert data["elapsed"] == pytest.approx(result.elapsed)
    assert len(data["maps"]) == 2
    assert "compute" in data["maps"][0]["phases"]
    json.dumps(data)  # must be JSON-safe


# -- CLI --------------------------------------------------------------------------

def test_cli_validate(capsys):
    from repro.cli import main

    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "wordcount matches oracle : True" in out


def test_cli_run_modes(capsys):
    from repro.cli import main

    assert main(["run", "--mode", "uplus", "--files", "2", "--mb", "5"]) == 0
    out = capsys.readouterr().out
    assert "elapsed" in out


def test_cli_run_auto(capsys):
    from repro.cli import main

    assert main(["run", "--mode", "auto", "--files", "1", "--mb", "5"]) == 0
    assert "hadoop-uber" in capsys.readouterr().out


def test_cli_figures_list(capsys):
    from repro.cli import main

    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "figure7" in out and "table2" in out


def test_cli_unknown_figure(capsys):
    from repro.cli import main

    assert main(["figure", "figure99"]) == 2


def test_cli_chaos_one_cell(capsys):
    from repro.cli import main
    from repro.experiments.chaos import SCENARIOS, run_under_faults

    assert main(["chaos", "--scenario", "healthy", "--mode", "MRapid-D+"]) == 0
    point = run_under_faults("MRapid-D+",
                             dict(SCENARIOS)["healthy"]().with_seed(17))
    assert capsys.readouterr().out == (
        f"{'MRapid-D+':20s} {point.elapsed:7.2f}s  resubmits=0  "
        f"faults: none\n")


def test_cli_report_writes_the_generated_text(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    from repro.experiments import report

    monkeypatch.setattr(report, "generate_report", lambda: "# stub report\n")
    out = tmp_path / "EXPERIMENTS.md"
    assert main(["report", str(out), "--jobs", "1"]) == 0
    assert out.read_text() == "# stub report\n"
    assert capsys.readouterr().out == f"wrote {out}\n"


def test_figure_o1_claims_hold():
    from repro.experiments.overhead import figureO1_overhead_fraction

    fig = figureO1_overhead_fraction()
    assert len(fig.claims) == 2
    assert all(claim.holds for claim in fig.claims)


def test_cli_figure_table2(capsys):
    from repro.cli import main

    assert main(["figure", "table2"]) == 0
    assert "A3" in capsys.readouterr().out


# -- timeline ---------------------------------------------------------------------

def test_job_timeline_renders_rows():
    from repro.experiments.timeline import job_timeline

    result = run_mode(MRAPID_DPLUS, a3_cluster(2), wordcount_input(2, 5.0))
    text = job_timeline(result, width=40)
    assert result.job_name in text
    assert "m000@" in text and "r000@" in text
    assert "█" in text


def test_job_timeline_empty_result():
    from repro.experiments.timeline import job_timeline
    from repro.mapreduce.spec import JobResult

    empty = JobResult("x", "j", "m", submit_time=0.0)
    assert "no completed tasks" in job_timeline(empty)


def test_compare_timelines_handles_multiple():
    from repro.experiments.timeline import compare_timelines

    r1 = run_mode(MRAPID_DPLUS, a3_cluster(2), wordcount_input(1, 5.0))
    r2 = run_mode(HADOOP_DIST, a3_cluster(2), wordcount_input(1, 5.0))
    text = compare_timelines([r1, r2])
    assert text.count("legend") == 2
    assert compare_timelines([]) == "(nothing to compare)"


def test_cli_tune(capsys):
    from repro.cli import main

    assert main(["tune", "--files", "4", "--candidates", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "maps_per_vcore=1" in out and "best" in out


def test_cli_spark(capsys):
    from repro.cli import main

    assert main(["spark", "--files", "2"]) == 0
    out = capsys.readouterr().out
    assert "Spark-lite warm" in out


def test_generate_report_with_custom_figures():
    from repro.experiments.report import generate_report

    def toy_builder():
        return toy_figure()

    text = generate_report(figures={"toy": toy_builder}, include_extended=False)
    assert "Fig X" in text
    assert "1/1 quantitative claims hold" in text
    assert "Appendix" not in text


def test_figure_markdown_includes_notes():
    from repro.experiments.report import figure_markdown

    fig = toy_figure()
    fig.notes = "a caveat"
    text = figure_markdown(fig)
    assert "| verdict |" in text
    assert "a caveat" in text


# -- ragged figures and tolerance-aware lookups --------------------------------

def ragged_figure():
    """A mode that skipped one x: series lengths differ."""
    full = Series("Full", [1, 2, 4], [10.0, 20.0, 40.0])
    ragged = Series("Skips", [1, 4], [9.0, 39.0])
    extra = Series("Extra", [1, 2, 4, 8], [8.0, 18.0, 38.0, 78.0])
    return FigureResult("Fig R", "ragged", "n",
                        {"Full": full, "Skips": ragged, "Extra": extra})


def test_render_table_aligns_ragged_series_by_x():
    """Regression: render_table used to index every series with the first
    series' positions — IndexError as soon as one mode skipped an x."""
    table = ragged_figure().render_table()
    rows = {line.split()[0]: line for line in table.splitlines()[3:]}
    # All four xs present (union, first-seen order), missing cells dashed.
    assert list(rows) == ["1", "2", "4", "8"]
    assert "-" in rows["2"] and "39.0" in rows["4"]
    assert rows["8"].count("-") == 2  # Full and Skips both miss x=8
    assert "78.0" in rows["8"]


def test_report_markdown_aligns_ragged_series_by_x():
    from repro.experiments.report import figure_markdown

    md = figure_markdown(ragged_figure())
    assert "| 8 | - | - | 78.0 |" in md


def test_series_at_uses_float_tolerance():
    """Regression: Series.at used exact list .index — 0.1 + 0.2 missed the
    cell recorded at 0.3."""
    s = Series("t", [0.3, 15.0], [1.0, 2.0])
    assert s.at(0.1 + 0.2) == 1.0
    assert s.at(15.000000000001) == 2.0
    assert s.has(0.1 + 0.2)
    assert not s.has(0.4)
    with pytest.raises(ValueError):
        s.at(99)


def test_series_at_non_numeric_axis_matches_exactly():
    s = Series("attrs", ["cores", "memory_gb"], [4.0, 7.0])
    assert s.at("cores") == 4.0
    with pytest.raises(ValueError):
        s.at("disk_gb")


def test_render_table_unchanged_for_rectangular_figures():
    table = toy_figure().render_table()
    assert "10.0" in table and "25.0" in table
    assert "-" not in table.splitlines()[-1]
