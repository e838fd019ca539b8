"""The sweep core: one drift rule, one results writer, one exit code.

The drift cases are parametrized over three of the four sweeps.  Each
fresh report is a quick-scope run: f12's quick inject cells,
memcached's quick fuzz trials, and the cluster sweep's quick subset.
Every case goes through the same :func:`check_against`; only the
sweep's :class:`DriftRule` differs.  The matrix's rule is pinned in
``tests/test_matrix_report.py``.
"""

from __future__ import annotations

import copy
import json
from typing import NamedTuple

import pytest

from repro.harness import cluster_sweep, fuzz_sweep, inject_sweep
from repro.harness.matrix import CellSpec, run_matrix
from repro.harness.sweep import DriftRule, check_against, conclude


class Case(NamedTuple):
    rule: DriftRule
    #: the report's list of per-cell records
    cells: str
    #: a contract field to tamper with
    field: str
    committed_path: str
    fresh: dict


@pytest.fixture(scope="module")
def inject_fresh():
    counts, _ = inject_sweep.discover_sites("f12")
    cells = [
        inject_sweep.run_cell("f12", spec)
        for spec in inject_sweep.fault_cells(counts, seed=0, quick=True)
    ]
    report = inject_sweep.SweepReport(
        seed=0, quick=True, sites={"f12": counts}, cells=cells,
    )
    return report.to_json()


@pytest.fixture(scope="module")
def fuzz_fresh():
    row = fuzz_sweep.fuzz_system("memcached", trials=fuzz_sweep.QUICK_TRIALS)
    report = fuzz_sweep.FuzzReport(
        sweep_seed=fuzz_sweep.DEFAULT_SWEEP_SEED,
        trials_per_system=fuzz_sweep.QUICK_TRIALS,
        systems=[row],
    )
    return report.to_json()


@pytest.fixture
def cluster_fresh(cluster_quick_report):
    return cluster_quick_report.to_json()


_CASES = {
    "inject": (inject_sweep.DRIFT, "cells", "pool_digest"),
    "fuzz": (fuzz_sweep.DRIFT, "entries", "signature"),
    "cluster": (cluster_sweep.DRIFT, "cells", "recovered"),
}


@pytest.fixture(params=sorted(_CASES))
def case(request) -> Case:
    rule, cells, field = _CASES[request.param]
    fresh = request.getfixturevalue(f"{request.param}_fresh")
    assert fresh[cells], "the quick scope must hold at least one cell"
    return Case(rule, cells, field,
                f"results/{request.param}_sweep.json", fresh)


def test_fresh_report_matches_itself(case):
    assert check_against(case.fresh, copy.deepcopy(case.fresh), case.rule) == []


def test_flags_tampered_contract(case):
    committed = copy.deepcopy(case.fresh)
    committed[case.cells][0][case.field] = "tampered"
    problems = check_against(case.fresh, committed, case.rule)
    assert len(problems) == 1
    assert f"drifted on {case.field}: committed 'tampered'" in problems[0]


def test_flags_cell_missing_from_committed(case):
    committed = copy.deepcopy(case.fresh)
    del committed[case.cells][0]
    problems = check_against(case.fresh, committed, case.rule)
    assert len(problems) == 1
    assert "missing from committed report" in problems[0]


def test_flags_identity_mismatch(case):
    for name in case.rule.identity:
        committed = copy.deepcopy(case.fresh)
        committed[name] = "other"
        # identity problems stop the check before any cell is compared
        committed[case.cells] = []
        assert check_against(case.fresh, committed, case.rule) == [
            f"{name} mismatch: committed 'other' vs {case.fresh[name]!r}"
        ]


def test_committed_report_is_current(case):
    # the CI drift job's contract: the committed full report covers the
    # quick scope exactly as it runs today
    with open(case.committed_path) as f:
        committed = json.load(f)
    assert check_against(case.fresh, committed, case.rule) == []


def test_reports_hold_no_measured_time():
    # a committed report regenerates byte-identical only if its JSON
    # holds no measured time: neither the matrix's worker count, wall
    # time and per-cell seconds nor a sweep's wall_seconds
    specs = [CellSpec("f21", "arthas", 0), CellSpec("f4", "arckpt", 0)]
    serial, pooled = (
        json.dumps(run_matrix(specs, jobs=jobs).to_json(), sort_keys=True)
        for jobs in (1, 2)
    )
    assert serial == pooled
    for report in (
        inject_sweep.SweepReport(seed=0, quick=True),
        fuzz_sweep.FuzzReport(sweep_seed=0, trials_per_system=1),
        cluster_sweep.ClusterSweepReport(sweep_seed=0),
    ):
        before = report.to_json()
        report.wall_seconds += 123.0
        assert report.to_json() == before, type(report).__name__


def test_committed_verdicts_hold():
    # the committed full reports' own verdicts: every inject cell
    # verified, every cluster cell converged
    with open("results/inject_sweep.json") as f:
        inject = json.load(f)
    assert inject["cells"] and all(c["verified"] for c in inject["cells"])
    with open("results/cluster_sweep.json") as f:
        cluster = json.load(f)
    assert cluster["all_converged"]
    assert cluster["cells_total"] == len(cluster["cells"]) >= 28


def test_vanished_fuzz_discovery_is_flagged(fuzz_fresh):
    # fuzz's scope is system x trial, not the entries found: a
    # committed discovery the fresh run no longer makes is drift
    fresh = copy.deepcopy(fuzz_fresh)
    vanished = fresh["entries"].pop(0)
    problems = check_against(fresh, fuzz_fresh, fuzz_sweep.DRIFT)
    assert problems == [
        f"cell {vanished['system']}#{vanished['trial']} missing from fresh run"
    ]


def test_fuzz_contract_ignores_fid(fuzz_fresh):
    # fids are numbered across the whole sweep, so a quick run renumbers
    # them; the contract is the entry minus its fid
    committed = copy.deepcopy(fuzz_fresh)
    committed["entries"][0]["fid"] = "f99"
    assert check_against(fuzz_fresh, committed, fuzz_sweep.DRIFT) == []


# ----------------------------------------------------------------------
# the shared tail: writer + verdict + exit code
# ----------------------------------------------------------------------
class _Report:
    def __init__(self, passed=True, value=1):
        self.passed = passed
        self.value = value

    def summary(self) -> str:
        return "stub sweep"

    def to_json(self) -> dict:
        return {"seed": 0, "cells": [{"key": "a", "value": self.value}]}


_RULE = DriftRule(
    identity=("seed",),
    scope=lambda r: [c["key"] for c in r["cells"]],
    contracts=lambda r: {c["key"]: c for c in r["cells"]},
)


def test_conclude_writes_full_runs_and_drift_checks_quick(tmp_path, capsys):
    out = str(tmp_path / "sub" / "report.json")
    assert conclude(_Report(), _RULE, out, quick=True) == 1  # nothing yet
    assert conclude(_Report(), _RULE, out, quick=False) == 0
    written = open(out).read()
    assert written == json.dumps(
        _Report().to_json(), indent=2, sort_keys=True
    ) + "\n"
    assert conclude(_Report(), _RULE, out, quick=True) == 0
    assert conclude(_Report(value=2), _RULE, out, quick=True) == 1
    assert conclude(_Report(passed=False), _RULE, out, quick=True) == 1
    assert open(out).read() == written, "--quick must write nothing"
    assert conclude(_Report(passed=False), _RULE, out, quick=False) == 1
    assert conclude(_Report(), _RULE, "-", quick=False) == 0
    err = capsys.readouterr().err
    assert "drift check: cell a drifted on value: committed 1 vs 2" in err


def test_conclude_full_run_prints_drift_then_writes(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    # no report at --out yet: a full run just writes it
    assert conclude(_Report(), _RULE, out, quick=False) == 0
    assert "drift check" not in capsys.readouterr().err
    # a drifting full run names the cell and field, rewrites --out, and
    # exits on the sweep's own verdict alone
    assert conclude(_Report(value=2), _RULE, out, quick=False) == 0
    err = capsys.readouterr().err
    assert "drift check: cell a drifted on value: committed 1 vs 2" in err
    with open(out) as f:
        assert json.load(f) == _Report(value=2).to_json()
    assert conclude(_Report(passed=False, value=2), _RULE, out,
                    quick=False) == 1
    assert f"drift check: no drift against {out}" in capsys.readouterr().err
