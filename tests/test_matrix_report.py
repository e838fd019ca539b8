"""The committed matrix report (``results/matrix_all.json``) stays current.

``python -m repro matrix-all --quick`` re-runs three faults under every
solution and drift-checks each cell against the committed one, whole:
f4 covers primary-rung recovery and bisect, f17 purge falling back to
rollback under ``arthas`` and the ``arckpt`` timeout, and f21 is the
cheapest cell.  After an intended behaviour change, regenerate the
report in full (``python -m repro matrix-all``) and review
``git diff results/``.
"""

import contextlib
import copy
import io
import json
from typing import NamedTuple

import pytest

from repro.cli import main
from repro.harness import matrix
from repro.harness.experiment import SOLUTIONS
from repro.harness.sweep import check_against


class QuickRun(NamedTuple):
    code: int
    err: str


@pytest.fixture(scope="module")
def quick_run() -> QuickRun:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["matrix-all", "--quick"])
    return QuickRun(code, err.getvalue())


def test_quick_matrix_matches_committed_report(quick_run):
    assert quick_run.code == 0, quick_run.err
    assert "drift check: no drift against results/matrix_all.json" in quick_run.err


@pytest.mark.parametrize("solution", SOLUTIONS)
@pytest.mark.parametrize("fid", matrix.QUICK_FIDS)
def test_committed_cell_matches_a_fresh_run(quick_run, fid, solution):
    label = f"{fid}/{solution}@0"
    assert f"  {label}: done" in quick_run.err  # the quick run ran it
    assert [
        line for line in quick_run.err.splitlines() if f"cell {label} " in line
    ] == []


def test_drift_names_the_cell_and_the_dotted_field():
    with open("results/matrix_all.json") as f:
        committed = json.load(f)
    fresh = copy.deepcopy(committed)
    cell = fresh["report"]["cells"][0]
    label = f"{cell['fid']}/{cell['solution']}@{cell['seed']}"
    attempts = cell["summary"]["mitigation"]["attempts"]
    cell["summary"]["mitigation"]["attempts"] += 1
    assert check_against(fresh, committed, matrix.DRIFT) == [
        f"cell {label} drifted on summary.mitigation.attempts: "
        f"committed {attempts} vs {attempts + 1}"
    ]
    fresh["config"] = {"seed": 1}
    assert check_against(fresh, committed, matrix.DRIFT) == [
        "config mismatch: committed {'seed': 0} vs {'seed': 1}"
    ]
