"""The committed matrix report (``results/matrix_all.json``) stays current.

``python -m repro matrix-all`` rewrites the report and nothing else reads
it back, so this slice re-runs three faults under every solution and
compares each cell with the committed one: f4 covers primary-rung
recovery and bisect, f17 purge falling back to rollback under ``arthas``
and the ``arckpt`` timeout, and f21 is the cheapest cell.  After an
intended behaviour change, regenerate the report in full.
"""

import json

import pytest

from repro.harness.experiment import SOLUTIONS, run_experiment
from repro.harness.matrix import comparable_summary, summarize_result

SLICE_FIDS = ("f4", "f17", "f21")


@pytest.fixture(scope="module")
def committed():
    with open("results/matrix_all.json") as f:
        report = json.load(f)
    return {
        (c["fid"], c["solution"], c["seed"]): c["summary"]
        for c in report["report"]["cells"]
    }


@pytest.mark.parametrize("solution", SOLUTIONS)
@pytest.mark.parametrize("fid", SLICE_FIDS)
def test_committed_cell_matches_a_fresh_run(committed, fid, solution):
    # the JSON round trip gives the fresh summary the committed types
    fresh = json.loads(json.dumps(
        summarize_result(run_experiment(fid, solution, seed=0))
    ))
    assert comparable_summary(fresh) == comparable_summary(
        committed[(fid, solution, 0)]
    )
