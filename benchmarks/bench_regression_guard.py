"""Bench-regression guard: quick hot-path run vs the committed numbers.

Re-runs the ``bench-hotpaths --quick`` micro benches and compares the
*ratios* (speedups, overhead percentages) against the committed
``results/BENCH_hotpaths.json``.  Absolute times differ across machines
and scales — the committed report is a 50k-update run, this guard runs
5k — so every check is a generous tolerance band plus a hard sanity
floor, not an equality:

* each indexed-vs-reference speedup must stay above a floor AND above a
  small fraction of the committed 50k-scale speedup (a real regression
  — reintroducing a linear scan — collapses the ratio by orders of
  magnitude, far below any band here);
* the pool-equivalence oracle (``pool_identical``) must still hold;
* the checkpoint write-path index overhead may not explode past the
  committed overhead by more than an absolute budget;
* live-traffic serving must keep its p99 lead over stop-the-world.

The fused VM's lead over table dispatch is pinned in
``tests/test_vm_fused.py``; the cluster write path and heal are measured
end to end by ``bench/run.py``.

Exits non-zero listing every violated band, so CI fails the PR.

Run::

    PYTHONPATH=src python benchmarks/bench_regression_guard.py
    PYTHONPATH=src python benchmarks/bench_regression_guard.py --updates 2000
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src")
)  # noqa: E402

from repro.harness.hotpaths import run_hotpaths

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_hotpaths.json"
)

#: fraction of the committed speedup the quick run must retain.  Quick
#: runs are 10x smaller, and the indexed-vs-linear gap *grows* with
#: scale (the reference scans are quadratic), so the relative band is
#: additionally capped: a committed 13000x rollback speedup measures in
#: the low hundreds at 5k, and a real regression — a reintroduced
#: linear scan — collapses any of these ratios to ~1, far below every
#: band here.
RELATIVE_FLOOR = 0.05
RELATIVE_CAP = 10.0

#: no speedup may fall below this regardless of the committed value
HARD_FLOOR = 3.0

#: write-path index overhead may exceed the committed percentage by at
#: most this many absolute points (the measurement itself swings tens
#: of points with machine load; per-update O(log) -> O(n) regressions
#: land in the hundreds)
OVERHEAD_BUDGET_PCT = 75.0

#: non-quarantined traffic during an active mitigation must see a p99
#: at least this much lower than stop-the-world serving.  The committed
#: target is >= 5x; the hard floor sits below it because the measured
#: ratio swings with runner load, while a real regression (the
#: cooperative chunking silently degrading to one long stall) lands the
#: ratio at ~1
LIVE_HARD_FLOOR = 2.5
LIVE_RELATIVE_FLOOR = 0.25
LIVE_RELATIVE_CAP = 5.0


class _Checks:
    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self.failures: List[str] = []

    def bound(self, name: str, measured: float, floor: float) -> None:
        ok = measured >= floor
        self.rows.append((name, f"{measured:.2f}", f">= {floor:.2f}", ok))
        if not ok:
            self.failures.append(name)

    def ceiling(self, name: str, measured: float, limit: float) -> None:
        ok = measured <= limit
        self.rows.append((name, f"{measured:.2f}", f"<= {limit:.2f}", ok))
        if not ok:
            self.failures.append(name)

    def flag(self, name: str, value: bool) -> None:
        self.rows.append((name, value, "True", bool(value)))
        if not value:
            self.failures.append(name)

    def skip(self, name: str, reason: str) -> None:
        self.rows.append((name, "-", f"skipped: {reason}", True))

    def render(self) -> str:
        width = max(len(r[0]) for r in self.rows)
        lines = []
        for name, measured, bound, ok in self.rows:
            mark = "ok  " if ok else "FAIL"
            lines.append(f"  {mark} {name:<{width}}  {measured}  ({bound})")
        return "\n".join(lines)


def _speedup_floor(committed: Optional[float]) -> float:
    if committed is None:
        return HARD_FLOOR
    return max(HARD_FLOOR, min(committed * RELATIVE_FLOOR, RELATIVE_CAP))


def _live_floor(committed: Optional[float]) -> float:
    if committed is None:
        return LIVE_HARD_FLOOR
    return max(LIVE_HARD_FLOOR,
               min(committed * LIVE_RELATIVE_FLOOR, LIVE_RELATIVE_CAP))


def run_guard(baseline_path: str, n_updates: int, seed: int) -> int:
    with open(baseline_path) as f:
        baseline = json.load(f)

    fresh = run_hotpaths(n_updates=n_updates, seed=seed)
    checks = _Checks()

    # ---- plan ---------------------------------------------------------
    committed_plan = baseline.get("plan", {}).get("speedup")
    checks.bound("plan.speedup", fresh["plan"]["speedup"],
                 _speedup_floor(committed_plan))

    # ---- mitigation (purge / rollback / bisect) -----------------------
    for mode, cell in sorted(fresh["mitigation"].items()):
        committed = baseline.get("mitigation", {}).get(mode, {})
        checks.bound(f"mitigation.{mode}.speedup", cell["speedup"],
                     _speedup_floor(committed.get("speedup")))
        checks.flag(f"mitigation.{mode}.pool_identical",
                    cell["pool_identical"])

    # ---- write path ---------------------------------------------------
    fresh_overhead = fresh["write_path"]["record_update"][
        "index_overhead_pct"]
    committed_overhead = (
        baseline.get("write_path", {})
        .get("record_update", {})
        .get("index_overhead_pct", 0.0)
    )
    checks.ceiling("write_path.record_update.index_overhead_pct",
                   fresh_overhead, committed_overhead + OVERHEAD_BUDGET_PCT)

    # ---- write_path_staged (staged log vs the eager oracle) -----------
    # bench_write_path raises outright when the structural digests
    # diverge; the flag additionally fails CI if the smoke ever gets
    # skipped or its result misreported
    checks.flag("write_path_staged.staged_eager_identical",
                fresh["write_path"].get("staged_eager_identical", False))
    fresh_ycsb = fresh["write_path"].get("ycsb")
    committed_ycsb = (
        baseline.get("write_path", {})
        .get("ycsb", {})
        .get("index_overhead_pct")
    )
    if fresh_ycsb is None:
        checks.skip("write_path_staged.ycsb_overhead_pct",
                    "no ycsb section in fresh run")
    else:
        checks.ceiling("write_path_staged.ycsb_overhead_pct",
                       fresh_ycsb["index_overhead_pct"],
                       (committed_ycsb or 0.0) + OVERHEAD_BUDGET_PCT)

    # ---- live traffic (scoped quarantine vs stop-the-world) -----------
    live = fresh["live_traffic"]
    committed_live = (
        baseline.get("live_traffic", {}).get("stw_over_scoped_p99_ratio")
    )
    checks.bound("live_traffic.stw_over_scoped_p99_ratio",
                 live["stw_over_scoped_p99_ratio"],
                 _live_floor(committed_live))
    # bench_live_traffic raises outright on digest or recovery mismatch;
    # the flags additionally fail CI if the section gets skipped or its
    # result misreported
    checks.flag("live_traffic.digests_identical",
                live.get("digests_identical", False))
    checks.flag("live_traffic.recovered", live.get("recovered", False))

    # ---- inject sweep (committed crash-safety record) -----------------
    sweep = baseline.get("inject_sweep")
    if sweep is None:
        checks.skip("inject_sweep.success_rate", "no committed section")
    else:
        checks.bound("inject_sweep.success_rate_pct",
                     sweep["recovery_success_rate_pct"], 100.0)

    print(f"bench-regression guard ({n_updates} updates vs committed "
          f"{baseline.get('config', {}).get('n_updates', '?')}):")
    print(checks.render())
    if checks.failures:
        print(f"\n{len(checks.failures)} band(s) violated: "
              f"{', '.join(checks.failures)}", file=sys.stderr)
        return 1
    print("\nall bands hold")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed report to compare against")
    parser.add_argument("--updates", type=int, default=5_000,
                        help="synthetic log size for the quick re-run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return run_guard(args.baseline, args.updates, args.seed)


if __name__ == "__main__":
    sys.exit(main())
