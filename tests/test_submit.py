"""The one mode table (``repro.core.submit.MODES``): each mode's cluster,
submit path and refusals."""

import pytest

import repro.core.submit as table
from repro.config import a3_cluster
from repro.core import SpeculationOutcome
from repro.core.submit import (
    MODES,
    build_cluster,
    build_stock_cluster,
    result_of,
    run_job,
    submit,
)
from repro.mapreduce import SimJobSpec
from repro.workloads import WORDCOUNT_PROFILE

#: ``JobResult.mode`` of a 4 x 10 MB wordcount on A3x4, per mode.
RESULT_MODES = {
    "stock": "hadoop-uber",          # small enough for Hadoop's uber rule
    "distributed": "hadoop-distributed",
    "uber": "hadoop-uber",
    "dplus": "mrapid-dplus",
    "uplus": "mrapid-uplus",
    "speculative": "mrapid-uplus",   # the winner's
}


def wc_spec(cluster, prefix="/wc"):
    paths = cluster.load_input_files(prefix, 4, 10.0)
    return SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE)


def test_every_mode_is_pinned():
    assert set(table.MODES) == set(RESULT_MODES)


@pytest.mark.parametrize("mode", [*RESULT_MODES, "turbo"])
def test_mode_table(mode):
    stock = build_stock_cluster(a3_cluster(4))
    if mode not in MODES or MODES[mode].mrapid:
        # Unknown, or an MRapid mode on a cluster without the proxy.
        with pytest.raises(ValueError):
            submit(stock, wc_spec(stock), mode)
    if mode not in MODES:
        with pytest.raises(ValueError):
            build_cluster(a3_cluster(4), mode)
        return
    cluster = build_cluster(a3_cluster(4), mode)
    assert hasattr(cluster, "mrapid_framework") == MODES[mode].mrapid
    result = run_job(cluster, wc_spec(cluster), mode)
    assert result.mode == RESULT_MODES[mode]
    assert result.finish_time > 0 and not (result.killed or result.failed)


def test_submit_returns_the_paths_own_process():
    cluster = build_cluster(a3_cluster(4), "speculative")
    proc = submit(cluster, wc_spec(cluster), "speculative")
    assert proc.name.startswith("speculative-")
    cluster.env.run(until=proc)
    assert isinstance(proc.value, SpeculationOutcome)
    assert result_of(proc.value) is proc.value.winner
    proc = submit(cluster, wc_spec(cluster, "/wc2"), "dplus")
    assert proc.name.startswith("mrapid-")
    cluster.env.run(until=proc)
    assert result_of(proc.value) is proc.value
