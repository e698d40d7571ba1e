"""Figure O1: framework-overhead fraction per mode (beyond paper).

The paper's motivating claim (§I) is that Hadoop's framework overhead can
take "up to 88%" of a short job's runtime. The stock figures only show the
*symptom* — total runtime — while this figure measures the overhead
directly: each data point runs one traced WordCount job through
:func:`repro.observe.run_profiled` and reports the critical-path
**non-compute fraction** (everything that is not read/compute work:
heartbeat waits, container launches, AM startup, spill/merge, shuffle,
write) as a percentage of end-to-end runtime.

Points run serially: tracing must be installed on the freshly built
cluster before the job runs, which the parallel :class:`PointTask` path
does not do. The sweep is four modes x three input sizes, so this is
cheap anyway.
"""

from __future__ import annotations

from ..observe.profile import run_profiled
from .harness import (
    ALL_MODES,
    HADOOP_DIST,
    MRAPID_UPLUS,
    FigureResult,
    PaperClaim,
    Series,
)


def figureO1_overhead_fraction(file_counts=(2, 4, 8),
                               file_mb: float = 10.0) -> FigureResult:
    """Framework overhead (% of runtime) vs input files, per mode."""
    series = {name: Series(name) for name in ALL_MODES}
    for num_files in file_counts:
        for name in ALL_MODES:
            report = run_profiled("wordcount", name,
                                  num_files=num_files, file_mb=file_mb)
            series[name].add(num_files, report.path.non_compute_fraction * 100.0)

    dist = series[HADOOP_DIST]
    uplus = series[MRAPID_UPLUS]
    worst_stock = max(dist.y)
    claims = [
        PaperClaim(
            "short jobs spend most of their time on framework overhead "
            "(paper §I: 'up to 88%')",
            paper_value=88.0, measured_value=worst_stock, unit="%",
            tolerance=35.0,
        ),
        PaperClaim(
            "MRapid removes overhead (sign: U+ fraction < stock at every size)",
            paper_value=1.0,
            measured_value=1.0 if all(u < d for u, d in zip(uplus.y, dist.y))
            else 0.0,
            unit="bool", tolerance=0.0,
        ),
    ]
    return FigureResult(
        figure_id="figureO1",
        title="Framework overhead fraction, WordCount (traced critical path)",
        x_label="input files",
        series=series,
        claims=claims,
        notes="y is the critical-path non-compute fraction in percent, "
              "not seconds; from `repro profile`'s attribution sweep.",
    )


OBSERVE_FIGURES: dict = {
    "figureO1": figureO1_overhead_fraction,
}
