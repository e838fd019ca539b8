"""Parallel experiment-matrix runner (process-pool fan-out).

PR 1 made each cell of the 12-fault x 4-solution evaluation matrix fast;
the wall-clock bottleneck became the *serial* sweep that the CLI and the
table/figure benchmarks run one cell at a time.  Cells are independent
and deterministic per ``(fault, solution, seed)``, so this module fans
them out over a :class:`concurrent.futures.ProcessPoolExecutor`:

* :func:`expand_matrix` builds the cell-spec list (the cross product);
* :func:`run_matrix` executes it — ``jobs=1`` is the exact serial path
  (same code, no pool, for debugging), ``jobs=N`` fans out over ``N``
  worker processes that import :mod:`repro` fresh (spawn start method)
  and call :func:`repro.harness.experiment.run_experiment`;
* :func:`summarize_result` / :func:`result_from_summary` round-trip an
  :class:`~repro.harness.experiment.ExperimentResult` through a plain
  JSON-compatible dict, the only payload that crosses the process
  boundary (and the format persisted under ``results/``, following the
  JSON-artifact convention of :mod:`repro.instrument.artifacts`);
* :func:`run_sweep`, :data:`DRIFT` and :class:`MatrixSweep` make
  ``matrix-all`` one of the sweeps of :mod:`repro.harness.sweep`: the
  full 24 x 5 matrix at one seed, written to
  ``results/matrix_all.json``, or (``--quick``) the
  :data:`QUICK_FIDS` x 5 slice drift-checked against it.

Failure handling: a cell that raises inside a worker produces a per-cell
*error record* instead of aborting the sweep; a worker process dying
(``BrokenProcessPool``) rebuilds the pool and retries the unfinished
cells once (:data:`MAX_WORKER_CRASH_RETRIES`) before recording
``worker-crash`` errors.  A cell needs no wall-clock timeout: the guest
step budget already turns a hung guest into a ``HangTrap``.  Progress is
reported incrementally as futures complete.

Determinism: ``run_experiment`` depends only on the cell spec, and no
summary field holds measured time, so the parallel sweep produces
cells equal to the serial loop's at every seed, and a report's JSON is
the same at any ``jobs``.  ``tests/test_matrix_parallel.py`` enforces
exactly that.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from multiprocessing import get_context
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.harness.experiment import (
    SOLUTIONS,
    ExperimentResult,
    MitigationRun,
    run_experiment,
)
from repro.faults.registry import ALL_SCENARIOS, scenario_by_id
from repro.harness.report import render_table
from repro.harness.sweep import DriftRule
from repro.lang.interp import FaultInfo

#: matrix axes: the paper's Section 6.1 evaluation (f1–f12) plus every
#: registered fuzzer discovery (f13+) — derived from the registry so the
#: matrix grows with `repro fuzz-sweep --emit-registry`
ALL_FAULT_IDS = tuple(s.fid for s in ALL_SCENARIOS)
ALL_SOLUTIONS = SOLUTIONS

#: fields of ExperimentResult handled specially by the summary round-trip
_NESTED_FIELDS = ("detection_fault", "mitigation")

#: resubmissions of an unfinished cell after worker death before it is
#: recorded as a ``worker-crash``
MAX_WORKER_CRASH_RETRIES = 1

#: ``matrix-all --quick``: these faults under every solution.  f4
#: covers primary-rung recovery and bisect, f17 purge falling back to
#: rollback under ``arthas`` and the ``arckpt`` timeout, and f21 is the
#: cheapest cell
QUICK_FIDS = ("f4", "f17", "f21")


# ----------------------------------------------------------------------
# cell specs
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class CellSpec:
    """One (fault, solution, seed) cell of the evaluation matrix."""

    fid: str
    solution: str
    seed: int = 0

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.fid, self.solution, self.seed)

    def label(self) -> str:
        return f"{self.fid}/{self.solution}@{self.seed}"


def expand_matrix(
    fids: Optional[Iterable[str]] = None,
    solutions: Optional[Iterable[str]] = None,
    seeds: Iterable[int] = (0,),
) -> List[CellSpec]:
    """The cross product of the given axes, solution-major like the
    serial CLI sweep (all faults of one solution, then the next)."""
    fid_list = list(fids) if fids is not None else list(ALL_FAULT_IDS)
    sol_list = list(solutions) if solutions is not None else list(ALL_SOLUTIONS)
    return [
        CellSpec(fid, sol, seed)
        for sol in sol_list
        for fid in fid_list
        for seed in seeds
    ]


# ----------------------------------------------------------------------
# summary round-trip
# ----------------------------------------------------------------------
def summarize_result(result: ExperimentResult) -> Dict[str, object]:
    """Serialize an :class:`ExperimentResult` to a picklable/JSON dict.

    Every dataclass field is carried verbatim (enumerated via
    ``dataclasses.fields`` so new fields cannot silently be dropped);
    nested ``FaultInfo``/``MitigationRun`` become nested dicts.
    """
    out: Dict[str, object] = {}
    for f in fields(ExperimentResult):
        if f.name in _NESTED_FIELDS:
            continue
        value = getattr(result, f.name)
        out[f.name] = list(value) if isinstance(value, list) else value
    fault = result.detection_fault
    out["detection_fault"] = (
        None
        if fault is None
        else {
            f.name: (
                list(getattr(fault, f.name))
                if isinstance(getattr(fault, f.name), list)
                else getattr(fault, f.name)
            )
            for f in fields(FaultInfo)
        }
    )
    run = result.mitigation
    out["mitigation"] = (
        None
        if run is None
        else {
            f.name: (
                list(getattr(run, f.name))
                if isinstance(getattr(run, f.name), list)
                else getattr(run, f.name)
            )
            for f in fields(MitigationRun)
        }
    )
    return out


def result_from_summary(summary: Dict[str, object]) -> ExperimentResult:
    """Rebuild the :class:`ExperimentResult` a summary dict came from."""
    data = dict(summary)
    fault = data.pop("detection_fault", None)
    run = data.pop("mitigation", None)
    result = ExperimentResult(**data)
    if fault is not None:
        result.detection_fault = FaultInfo(**fault)
    if run is not None:
        result.mitigation = MitigationRun(**run)
    return result


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------
def _run_cell_payload(key: Tuple[str, str, int]) -> Dict[str, object]:
    """Execute one cell; returns an ``ok`` or ``error`` payload dict.

    Runs in the worker process (and, for ``jobs=1``, in the caller).  All
    expected failures are converted to data here so the future never
    carries an exception for an in-cell error — only worker *death*
    surfaces at the pool level.
    """
    fid, solution, seed = key
    try:
        result = run_experiment(fid, solution, seed=seed)
        return {"status": "ok", "summary": summarize_result(result)}
    except Exception as exc:
        return {
            "status": "error",
            "error": {
                "kind": "exception",
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        }


# ----------------------------------------------------------------------
# the caller side
# ----------------------------------------------------------------------
@dataclass
class CellOutcome:
    """Result of one cell: a summary dict, or an error record."""

    spec: CellSpec
    summary: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, object]] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.summary is not None

    @property
    def recovered(self) -> bool:
        return bool(
            self.ok and self.summary["mitigation"] is not None
            and self.summary["mitigation"]["recovered"]
        )

    @property
    def progress_line(self) -> str:
        status = "done" if self.ok else f"ERROR ({self.error['kind']})"
        return f"{self.spec.label()}: {status}"

    def result(self) -> ExperimentResult:
        """The rebuilt :class:`ExperimentResult` (raises on error cells)."""
        if self.summary is None:
            raise RuntimeError(
                f"cell {self.spec.label()} failed: {self.error}"
            )
        return result_from_summary(self.summary)

    def to_json(self) -> Dict[str, object]:
        return {
            "fid": self.spec.fid,
            "solution": self.spec.solution,
            "seed": self.spec.seed,
            "ok": self.ok,
            "summary": self.summary,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class MatrixReport:
    """Outcome of one sweep, cells in spec order (not completion order)."""

    jobs: int
    cells: List[CellOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def n_ok(self) -> int:
        return sum(1 for c in self.cells if c.ok)

    @property
    def n_errors(self) -> int:
        return len(self.cells) - self.n_ok

    def by_key(self) -> Dict[Tuple[str, str, int], CellOutcome]:
        return {c.spec.key: c for c in self.cells}

    def summaries(self) -> Dict[Tuple[str, str, int], Optional[Dict[str, object]]]:
        """Cell summaries keyed by spec — the equality-comparison view."""
        return {c.spec.key: c.summary for c in self.cells}

    def to_json(self) -> Dict[str, object]:
        return {
            "n_cells": len(self.cells),
            "n_ok": self.n_ok,
            "n_errors": self.n_errors,
            "cells": [c.to_json() for c in self.cells],
        }


ProgressFn = Callable[[int, int, CellOutcome], None]


def default_jobs() -> int:
    """Default fan-out width: one worker per CPU."""
    return os.cpu_count() or 1


def run_matrix(
    specs: Sequence[CellSpec],
    jobs: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> MatrixReport:
    """Run every cell, serially (``jobs=1``) or over a process pool.

    The two paths execute the identical per-cell code
    (:func:`_run_cell_payload`) and return identical summaries; only the
    scheduling differs.  ``progress`` is invoked once per finished cell
    with ``(done, total, outcome)`` in completion order.
    """
    specs = list(specs)
    n_jobs = jobs if jobs is not None else default_jobs()
    if n_jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {n_jobs}")
    start = time.perf_counter()
    outcomes: Dict[int, CellOutcome] = {}
    done = 0

    def record(index: int, outcome: CellOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        if progress is not None:
            progress(done, len(specs), outcome)

    if n_jobs == 1 or len(specs) <= 1:
        for i, spec in enumerate(specs):
            payload = _run_cell_payload(spec.key)
            record(i, _outcome_from_payload(spec, payload, attempts=1))
    else:
        _run_pooled(specs, n_jobs, record)

    report = MatrixReport(jobs=n_jobs)
    report.cells = [outcomes[i] for i in range(len(specs))]
    report.wall_seconds = time.perf_counter() - start
    return report


def _outcome_from_payload(
    spec: CellSpec, payload: Dict[str, object], attempts: int
) -> CellOutcome:
    return CellOutcome(
        spec=spec,
        summary=payload.get("summary") if payload["status"] == "ok" else None,
        error=payload.get("error") if payload["status"] != "ok" else None,
        attempts=attempts,
    )


def _run_pooled(
    specs: List[CellSpec],
    n_jobs: int,
    record: Callable[[int, CellOutcome], None],
) -> None:
    """Fan the cells out, rebuilding the pool after worker death.

    Workers use the ``spawn`` start method so each imports :mod:`repro`
    fresh — no state leaks from the parent, and fork-safety of the
    harness is never assumed.  When the pool breaks, every unfinished
    cell's attempt count is bumped (the dead worker's cell cannot be told
    apart from innocently queued ones); cells past their retry budget get
    ``worker-crash`` error records, the rest are resubmitted to a fresh
    pool.
    """
    pending: Dict[int, CellSpec] = dict(enumerate(specs))
    attempts: Dict[int, int] = {i: 0 for i in pending}
    # bounded pool rebuilds: each rebuild errors-out or retires at least
    # one cell, but cap defensively anyway
    for _rebuild in range(len(specs) + MAX_WORKER_CRASH_RETRIES + 1):
        if not pending:
            return
        ctx = get_context("spawn")
        broken = False
        with ProcessPoolExecutor(
            max_workers=min(n_jobs, len(pending)), mp_context=ctx
        ) as pool:
            futures = {
                pool.submit(_run_cell_payload, spec.key): i
                for i, spec in pending.items()
            }
            not_done = set(futures)
            while not_done:
                finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in finished:
                    i = futures[fut]
                    spec = pending[i]
                    try:
                        payload = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as exc:  # pragma: no cover - transport
                        # e.g. the payload failed to pickle; treat as an
                        # in-cell error, not a crash
                        record(i, CellOutcome(
                            spec=spec,
                            error={
                                "kind": "exception",
                                "type": type(exc).__name__,
                                "message": str(exc),
                                "traceback": traceback.format_exc(),
                            },
                            attempts=attempts[i] + 1,
                        ))
                        del pending[i]
                        continue
                    record(i, _outcome_from_payload(
                        spec, payload, attempts=attempts[i] + 1
                    ))
                    del pending[i]
                if broken:
                    break
        if not broken:
            return
        # worker death: bump attempts for everything unfinished, retire
        # cells that exhausted the retry budget, resubmit the rest
        for i in list(pending):
            attempts[i] += 1
            if attempts[i] > MAX_WORKER_CRASH_RETRIES:
                record(i, CellOutcome(
                    spec=pending[i],
                    error={
                        "kind": "worker-crash",
                        "type": "BrokenProcessPool",
                        "message": "worker process died while the cell "
                                   "was queued or running",
                        "traceback": "",
                    },
                    attempts=attempts[i],
                ))
                del pending[i]
    if pending:  # pragma: no cover - defensive cap
        for i, spec in pending.items():
            record(i, CellOutcome(
                spec=spec,
                error={
                    "kind": "worker-crash",
                    "type": "BrokenProcessPool",
                    "message": "pool rebuild budget exhausted",
                    "traceback": "",
                },
                attempts=attempts[i],
            ))


# ----------------------------------------------------------------------
# matrix-all: the matrix as one of the seeded sweeps
# ----------------------------------------------------------------------
@dataclass
class MatrixSweep:
    """``matrix-all``'s report: the fault x solution matrix at one seed,
    with per-family recoverability."""

    seed: int
    matrix: MatrixReport

    @property
    def passed(self) -> bool:
        """The sweep's verdict: no cell errored."""
        return self.matrix.n_errors == 0

    def families(self) -> Dict[str, dict]:
        """Recoverability per fault family and solution, families in
        the order their first cell appears."""
        out: Dict[str, dict] = {}
        for cell in self.matrix.cells:
            family = out.setdefault(
                scenario_by_id(cell.spec.fid).family,
                {"faults": set(), "solutions": {}},
            )
            family["faults"].add(cell.spec.fid)
            row = family["solutions"].setdefault(
                cell.spec.solution, {"cells": 0, "recovered": 0}
            )
            row["cells"] += 1
            row["recovered"] += cell.recovered
        for family in out.values():
            family["faults"] = sorted(family["faults"], key=lambda f: int(f[1:]))
        return out

    def to_json(self) -> Dict[str, object]:
        return {
            "config": {"seed": self.seed},
            "families": self.families(),
            "report": self.matrix.to_json(),
        }

    def summary(self) -> str:
        cells = self.matrix.cells
        solutions = [s for s in ALL_SOLUTIONS
                     if any(c.spec.solution == s for c in cells)]
        rows = []
        for solution in solutions:
            mine = [c for c in cells if c.spec.solution == solution]
            rows.append([solution, len(mine), sum(c.recovered for c in mine),
                         sum(not c.ok for c in mine)])
        family_rows = [
            [name, len(family["faults"])] + [
                f"{family['solutions'][s]['recovered']}/"
                f"{family['solutions'][s]['cells']}"
                for s in solutions
            ]
            for name, family in self.families().items()
        ]
        return "\n\n".join([
            render_table(
                f"Matrix sweep (seed {self.seed}, {len(cells)} cells, "
                f"{self.matrix.jobs} worker(s), "
                f"{self.matrix.wall_seconds:.1f}s wall)",
                ["solution", "cells", "recovered", "errors"],
                rows,
            ),
            render_table(
                "Recoverability by fault family (recovered/cells)",
                ["family", "faults"] + solutions,
                family_rows,
            ),
        ])


def _cells_by_label(report: dict) -> Dict[str, dict]:
    return {
        f"{c['fid']}/{c['solution']}@{c['seed']}": c
        for c in report["report"]["cells"]
    }


DRIFT = DriftRule(
    identity=("config",),
    scope=lambda report: list(_cells_by_label(report)),
    contracts=_cells_by_label,
)


def run_sweep(
    seed: int = 0,
    quick: bool = False,
    progress: Optional[Callable[[CellOutcome], None]] = None,
    jobs: Optional[int] = None,
) -> MatrixSweep:
    """Every registered fault under every solution at ``seed``
    (``quick``: the :data:`QUICK_FIDS` rows only)."""
    specs = expand_matrix(fids=QUICK_FIDS if quick else None, seeds=[seed])
    report = run_matrix(
        specs, jobs=jobs,
        progress=None if progress is None
        else lambda _done, _total, cell: progress(cell),
    )
    return MatrixSweep(seed=seed, matrix=report)
