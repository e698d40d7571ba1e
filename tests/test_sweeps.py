"""Tests for the generic grid-sweep utility."""

import csv
import io

import pytest

from repro.experiments.sweeps import Axis, SweepResult, grid_sweep


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("empty", ())


def test_grid_sweep_cartesian_coverage():
    result = grid_sweep(
        [Axis("a", (1, 2)), Axis("b", ("x", "y", "z"))],
        lambda a, b: {"score": a * 10 + len(b)},
    )
    assert len(result) == 6
    assert result.axes == ["a", "b"]
    assert result.metrics == ["score"]
    assert {(r["a"], r["b"]) for r in result.rows} == \
        {(a, b) for a in (1, 2) for b in "xyz"}


def test_grid_sweep_validation():
    with pytest.raises(ValueError):
        grid_sweep([], lambda: {})
    with pytest.raises(ValueError):
        grid_sweep([Axis("a", (1,)), Axis("a", (2,))], lambda a: {"m": a})

    flip = {"first": True}

    def inconsistent(a):
        if flip.pop("first", False):
            return {"m1": a}
        return {"m2": a}

    with pytest.raises(ValueError, match="inconsistent metrics"):
        grid_sweep([Axis("a", (1, 2))], inconsistent)


def test_best_and_where():
    result = grid_sweep([Axis("n", (1, 2, 3))],
                        lambda n: {"elapsed": 10.0 / n, "cost": float(n)})
    assert result.best("elapsed")["n"] == 3
    assert result.best("cost", minimize=False)["n"] == 3
    assert len(result.where(n=2)) == 1
    with pytest.raises(ValueError):
        SweepResult(axes=["n"], metrics=["m"]).best("m")


def test_csv_round_trip(tmp_path):
    result = grid_sweep([Axis("n", (1, 2))], lambda n: {"v": n * 1.5})
    path = str(tmp_path / "sweep.csv")
    text = result.to_csv(path)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows == [{"n": "1", "v": "1.5"}, {"n": "2", "v": "3.0"}]
    with open(path) as f:
        assert f.read() == text


def test_table_rendering_truncates():
    result = grid_sweep([Axis("n", tuple(range(30)))], lambda n: {"v": float(n)})
    text = result.table(max_rows=5)
    assert "more rows" in text
    assert text.splitlines()[0].startswith("n")


def test_progress_callback_sees_every_row():
    seen = []
    grid_sweep([Axis("n", (1, 2, 3))], lambda n: {"v": n},
               progress=seen.append)
    assert [r["n"] for r in seen] == [1, 2, 3]


def test_sweep_with_simulator_points():
    """End-to-end: sweep mode x files with real simulated runs."""
    from repro.config import a3_cluster
    from repro.core import build_mrapid_cluster, run_job
    from repro.experiments.figures import wordcount_input

    def point(mode, n_files):
        cluster = build_mrapid_cluster(a3_cluster(4))
        result = run_job(cluster, wordcount_input(n_files, 10.0)(cluster),
                         mode)
        return {"elapsed": result.elapsed}

    result = grid_sweep(
        [Axis("mode", ("dplus", "uplus")), Axis("n_files", (2, 8))], point)
    assert len(result) == 4
    # The known crossover shape: U+ wins at 2 files, D+ at 8.
    assert result.where(mode="uplus", n_files=2)[0]["elapsed"] < \
        result.where(mode="dplus", n_files=2)[0]["elapsed"]
