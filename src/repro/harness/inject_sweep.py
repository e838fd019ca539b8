"""Exhaustive fault-injection sweep over the recovery pipeline.

The robustness claim worth having is not "mitigation usually works" but
"mitigation survives its *own* crashes at every step".  This module
proves it by enumeration:

1. **discover** — run one experiment with a record-mode
   :class:`~repro.faultinject.InjectionPlan`; every injection site that
   fires during mitigation is counted (sites are named: persist/flush
   boundaries, checkpoint ``record_*`` hooks, reversion cut/commit
   points);
2. **enumerate** — expand the counts into cells via
   :func:`~repro.faultinject.enumerate_cells`: one cell per (site,
   sampled occurrence, applicable fault kind);
3. **sweep** — re-run the experiment once per cell with exactly that
   fault injected, under the crash-retry supervisor, and demand the cell
   ends **verified-consistent**: mitigation recovered, poolcheck passes,
   the checkpoint-checksum scan quarantined anything corrupt, and the
   post-recovery consistency probe finds no violations.

``python -m repro inject-sweep`` drives this through the shared sweep
core (:mod:`repro.harness.sweep`) and exits non-zero unless every cell
verifies; both modes drift-check each cell's contract against the
committed report, and ``--quick`` (occurrence 1 of each site × kind, a
subset of the full sweep's cells) also fails on drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faultinject import InjectionPlan, InjectionSpec, enumerate_cells
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.sweep import DriftRule, run_cells

#: the recovery-pipeline sweep's kinds — the guest-persistence skip
#: kinds belong to the crash-consistency fuzzer (harness/fuzz_sweep.py),
#: not to this sweep, whose cell enumeration is pinned by CI
PIPELINE_KINDS = ("crash", "torn", "bitflip")

#: per-fault (pre_ops, post_ops) overrides keeping sweep cells tractable;
#: faults not listed run their scenario's default operation counts
DEFAULT_OPS: Dict[str, Tuple[int, int]] = {"f9": (80, 40)}

#: the sweep's subjects: a hard trap fault (CCEH directory doubling) and
#: a leak fault — together they exercise the rollback and leak-fix
#: rungs plus every pmem/ckpt site family (``arthas-rb`` owns no
#: snapshotter, so the ladder has no snapshot rung here)
FAULTS = ("f9", "f12")

SOLUTION = "arthas-rb"

DEFAULT_SEED = 0

#: occurrences sampled per site family in a full sweep (first and last
#: always included); ``--quick`` samples occurrence 1 only
MAX_PER_SITE = 3

#: the per-cell outcome fields the drift check compares
CONTRACT_FIELDS = (
    "fired", "recovered", "recovered_by", "consistent", "pool_ok",
    "verified", "checksum_quarantined", "crash_retries", "pool_digest",
)


@dataclass
class SweepCell:
    """One (fault, site, occurrence, kind) injection outcome."""

    fid: str
    site: str
    occurrence: int
    kind: str
    fired: bool = False
    recovered: bool = False
    consistent: Optional[bool] = None
    pool_ok: bool = False
    checksum_quarantined: int = 0
    crash_retries: int = 0
    recovered_by: Optional[str] = None
    #: simulated seconds the mitigation took
    recovery_seconds: float = 0.0
    pool_digest: int = 0
    notes: str = ""

    @property
    def label(self) -> str:
        return f"{self.fid}:{self.site}#{self.occurrence}:{self.kind}"

    @property
    def verified(self) -> bool:
        """Did the cell end in a provably consistent state?

        The injected fault must actually have fired (else the cell
        tested nothing), mitigation must have recovered, poolcheck must
        pass, and the consistency probe must not have found violations.
        """
        return (
            self.fired
            and self.recovered
            and self.pool_ok
            and self.consistent is not False
        )

    @property
    def progress_line(self) -> str:
        status = "ok  " if self.verified else "FAIL"
        return (f"{status} {self.label} (retries={self.crash_retries}, "
                f"by={self.recovered_by})")

    def contract(self) -> dict:
        """The cell's label and drift-checked outcome fields."""
        return {"label": self.label,
                **{f: getattr(self, f) for f in CONTRACT_FIELDS}}

    def to_json(self) -> dict:
        out = self.contract()
        out["recovery_seconds"] = round(self.recovery_seconds, 3)
        out["notes"] = self.notes
        return out


@dataclass
class SweepReport:
    """The full sweep: per-cell outcomes plus the headline numbers."""

    seed: int
    quick: bool
    #: fid -> {site: dynamic firing count} from the discovery runs
    sites: Dict[str, Dict[str, int]] = field(default_factory=dict)
    cells: List[SweepCell] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_verified(self) -> int:
        return sum(1 for c in self.cells if c.verified)

    @property
    def success_rate(self) -> float:
        return 100.0 * self.n_verified / self.n_cells if self.cells else 0.0

    @property
    def mean_recovery_seconds(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.recovery_seconds for c in self.cells) / len(self.cells)

    @property
    def passed(self) -> bool:
        """The sweep's verdict: every cell verified-consistent."""
        return bool(self.cells) and self.n_verified == self.n_cells

    def failures(self) -> List[SweepCell]:
        return [c for c in self.cells if not c.verified]

    def to_json(self) -> dict:
        return {
            "solution": SOLUTION,
            "seed": self.seed,
            "kinds": list(PIPELINE_KINDS),
            "max_per_site": 1 if self.quick else MAX_PER_SITE,
            "sites_enumerated": {
                fid: dict(sorted(counts.items()))
                for fid, counts in sorted(self.sites.items())
            },
            "cells": [c.contract() for c in self.cells],
            "verified_consistent": self.n_verified,
            "recovery_success_rate_pct": round(self.success_rate, 2),
            "mean_recovery_seconds": round(self.mean_recovery_seconds, 3),
            "failures": [c.to_json() for c in self.failures()],
        }

    def summary(self) -> str:
        lines = [
            f"inject-sweep: {self.n_verified}/{self.n_cells} cells "
            f"verified-consistent ({self.success_rate:.1f}%), "
            f"mean recovery {self.mean_recovery_seconds:.1f} sim-s, "
            f"{self.wall_seconds:.1f}s wall"
        ]
        for fid, counts in sorted(self.sites.items()):
            lines.append(
                f"  {fid}: {len(counts)} site families, "
                f"{sum(counts.values())} dynamic firings"
            )
        for cell in self.failures():
            lines.append(f"  FAIL {cell.label}: {cell.notes or 'unverified'}")
        return "\n".join(lines)


DRIFT = DriftRule(
    identity=("seed", "solution", "kinds"),
    scope=lambda report: [c["label"] for c in report["cells"]],
    # each ``cells`` entry is exactly the cell's label + contract
    contracts=lambda report: {c["label"]: c for c in report["cells"]},
)


# ----------------------------------------------------------------------
def discover_sites(
    fid: str, seed: int = DEFAULT_SEED,
) -> Tuple[Dict[str, int], ExperimentResult]:
    """Count every injection site the mitigation of ``fid`` reaches."""
    n_pre, n_post = DEFAULT_OPS.get(fid, (None, None))
    plan = InjectionPlan(record=True)
    result = run_experiment(
        fid, SOLUTION, seed=seed, pre_ops=n_pre, post_ops=n_post,
        inject_plan=plan,
    )
    if not result.manifested or result.mitigation is None:
        raise RuntimeError(
            f"{fid}: fault did not manifest under seed {seed}; "
            f"nothing to sweep"
        )
    if not result.mitigation.recovered:
        raise RuntimeError(
            f"{fid}: baseline mitigation did not recover; "
            f"fix that before sweeping injections"
        )
    return dict(plan.counts), result


def fault_cells(
    counts: Dict[str, int], seed: int, quick: bool,
) -> List[InjectionSpec]:
    """One fault's cells: every (site, sampled occurrence, kind).

    Occurrence sampling pins the first occurrence, so the quick cells
    are a subset of the full sweep's, with the same spec seeds.
    """
    return enumerate_cells(
        counts, kinds=PIPELINE_KINDS,
        max_per_site=1 if quick else MAX_PER_SITE, seed=seed,
    )


def run_cell(
    fid: str, spec: InjectionSpec, seed: int = DEFAULT_SEED,
) -> SweepCell:
    """Run one experiment with exactly ``spec`` injected."""
    n_pre, n_post = DEFAULT_OPS.get(fid, (None, None))
    plan = InjectionPlan([spec])
    cell = SweepCell(
        fid=fid, site=spec.site, occurrence=spec.occurrence, kind=spec.kind,
    )
    result = run_experiment(
        fid, SOLUTION, seed=seed, pre_ops=n_pre, post_ops=n_post,
        inject_plan=plan,
    )
    run = result.mitigation
    if run is None:
        cell.notes = "experiment produced no mitigation"
        return cell
    cell.fired = bool(plan.fired)
    cell.recovered = run.recovered
    cell.consistent = run.consistent
    cell.recovery_seconds = run.duration_seconds
    v = run.ladder["verification"]
    cell.pool_ok = bool(v["pool_ok"])
    cell.checksum_quarantined = int(v["checksum_quarantined"])
    cell.pool_digest = run.pool_digest
    cell.crash_retries = int(run.ladder["crash_retries"])
    cell.recovered_by = run.ladder["recovered_by"]
    if "unrecoverable" in run.ladder:
        cell.notes = str(run.ladder["unrecoverable"]["reason"])
    if not cell.fired:
        cell.notes = "injection site never reached"
    return cell


def run_sweep(
    seed: int = DEFAULT_SEED, quick: bool = False, progress=None,
) -> SweepReport:
    """Discover each fault's sites, then run every enumerated cell."""
    report = SweepReport(seed=seed, quick=quick)

    def cells():
        for fid in FAULTS:
            counts, _baseline = discover_sites(fid, seed)
            report.sites[fid] = counts
            for spec in fault_cells(counts, seed, quick):
                yield fid, spec

    report.cells, report.wall_seconds = run_cells(
        cells(), lambda cell: run_cell(*cell, seed=seed), progress,
    )
    return report
