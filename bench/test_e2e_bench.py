"""Smoke test for the end-to-end bench: every workload at a tiny size.

    PYTHONPATH=src python -m pytest bench -q

One-second streams keep the run short while both heals still fire (the
fault lands 15% into the stream).  Checks that every metric named in
``BENCHMARK.json`` is printed with its unit, that no answer was wrong,
that both heals recover, and that the traced budget closes.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("ycsb_a", "churn", "heal_f1", "heal_f2")


def _run(*extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--seconds", "1",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] in WORKLOADS:
            printed[(parts[0], parts[1])] = (parts[2], parts[3])
    return proc.returncode, printed, json.loads(lines[-1])


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def untraced():
    return _run()


@pytest.fixture(scope="module")
def traced():
    return _run("--traced")


def test_every_end_to_end_metric_printed_with_unit(untraced, contract):
    code, printed, summary = untraced
    assert code == 0 and summary["correct"]
    for workload in WORKLOADS:
        for spec in contract["end_to_end"]:
            assert printed[(workload, spec["name"])][1] == spec["unit"]
            key = f"{workload}.{spec['name']}"
            assert summary["metrics"][key]["unit"] == spec["unit"]


def test_every_per_layer_metric_printed_with_unit(traced, contract):
    code, printed, summary = traced
    assert code == 0 and summary["correct"]
    for workload in WORKLOADS:
        for spec in contract["per_layer"]:
            assert printed[(workload, spec["name"])][1] == spec["unit"]


def test_no_wrong_answers(untraced, traced):
    for _code, printed, summary in (untraced, traced):
        assert summary["failed"] == 0 and summary["attempted"] > 0
        for workload in WORKLOADS:
            assert float(printed[(workload, "error_rate")][0]) == 0.0


def test_both_heals_recover(untraced):
    _code, printed, _summary = untraced
    for workload in ("heal_f1", "heal_f2"):
        assert printed[(workload, "recovered_by")][0] != ""
        assert float(printed[(workload, "time_to_heal_s")][0]) > 0.0
    assert printed[("heal_f1", "recovered_by")][0] == "purge"


def test_traced_budget_closes(traced):
    _code, printed, _summary = traced
    for workload in WORKLOADS:
        assert printed[(workload, "budget_closes")] == ("True", "bool")
        wall = float(printed[(workload, "wall_s")][0])
        unaccounted = float(printed[(workload, "unaccounted_s")][0])
        assert abs(unaccounted) <= 0.05 * wall
