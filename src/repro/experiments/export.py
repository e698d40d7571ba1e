"""Serialization of results to plain dicts / JSON.

Downstream analysis (notebooks, regression dashboards) wants machine-
readable output, not ASCII tables. Everything here is dependency-free
round-trippable JSON.
"""

from __future__ import annotations

import json
from typing import Any

from ..mapreduce.spec import JobResult, TaskRecord
from .harness import FigureResult, PaperClaim, Series


def task_record_to_dict(record: TaskRecord) -> dict[str, Any]:
    return {
        "task_id": record.task_id,
        "kind": record.kind,
        "node_id": record.node_id,
        "start_time": record.start_time,
        "finish_time": record.finish_time,
        "elapsed": record.elapsed,
        "input_mb": record.input_mb,
        "output_mb": record.output_mb,
        "locality": record.locality.name if record.locality is not None else None,
        "source_node": record.source_node,
        "in_memory_output": record.in_memory_output,
        "phases": {**record.phases.to_dict(), "total": record.phases.total()},
    }


def job_result_to_dict(result: JobResult) -> dict[str, Any]:
    return {
        "app_id": result.app_id,
        "job_name": result.job_name,
        "mode": result.mode,
        "submit_time": result.submit_time,
        "am_start_time": result.am_start_time,
        "finish_time": result.finish_time,
        "elapsed": result.elapsed,
        "am_overhead": result.am_overhead,
        "num_waves": result.num_waves,
        "killed": result.killed,
        "failed": result.failed,
        "locality_counts": result.locality_counts(),
        "nodes_used": sorted(result.nodes_used()),
        "maps": [task_record_to_dict(m) for m in result.maps],
        "reduces": [task_record_to_dict(r) for r in result.reduces],
    }


def series_to_dict(series: Series) -> dict[str, Any]:
    return {"name": series.name, "x": list(series.x), "y": list(series.y)}


def claim_to_dict(claim: PaperClaim) -> dict[str, Any]:
    return {
        "description": claim.description,
        "paper_value": claim.paper_value,
        "measured_value": claim.measured_value,
        "unit": claim.unit,
        "tolerance": claim.tolerance,
        "holds": claim.holds,
    }


def figure_to_dict(fig: FigureResult) -> dict[str, Any]:
    return {
        "figure_id": fig.figure_id,
        "title": fig.title,
        "x_label": fig.x_label,
        "series": {name: series_to_dict(s) for name, s in fig.series.items()},
        "claims": [claim_to_dict(c) for c in fig.claims],
        "notes": fig.notes,
    }


def figure_from_dict(data: dict[str, Any]) -> FigureResult:
    series = {
        name: Series(sd["name"], list(sd["x"]), list(sd["y"]))
        for name, sd in data["series"].items()
    }
    claims = [
        PaperClaim(cd["description"], cd["paper_value"], cd["measured_value"],
                   unit=cd["unit"], tolerance=cd["tolerance"])
        for cd in data.get("claims", [])
    ]
    return FigureResult(data["figure_id"], data["title"], data["x_label"],
                        series, claims=claims, notes=data.get("notes", ""))


def to_json(obj: Any, **kwargs: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, **kwargs)


def export_figures_json(figures: dict[str, FigureResult]) -> str:
    return to_json({name: figure_to_dict(fig) for name, fig in figures.items()})
