"""Hot-path perf trajectory: indexed reactor vs the seed linear scans.

Times plan computation, purge/rollback/bisect mitigation, fused VM
throughput, the checkpoint *write path* (``record_update``/persist-hook
throughput with and without the PR 1 indexes' incremental maintenance),
live-traffic serving through a mitigation, and the fault-injection sweep
(recovery success rate + mean recovery time over every enumerable crash
site; 100% verification required) on deterministic synthetic state (see
:mod:`repro.harness.hotpaths`), and writes ``results/BENCH_hotpaths.json``
so subsequent PRs can track the numbers.  The cluster write path and
heal are measured end to end by ``bench/run.py``.

Run standalone (not part of the pytest matrix benchmarks)::

    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py           # full, 50k updates
    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py --quick   # 5k-update smoke
    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py --no-inject

or via the CLI: ``python -m repro bench-hotpaths [--quick]`` (micro
benches only; the injection sweep stage is script-only).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src")
)  # noqa: E402

from repro.harness.hotpaths import (
    bench_inject_sweep,
    render_summary,
    run_hotpaths,
    write_report,
)

DEFAULT_OUT = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_hotpaths.json"
)

#: full-size run (the acceptance number) vs the smoke-check size
FULL_UPDATES = 50_000
QUICK_UPDATES = 5_000


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"smoke check: {QUICK_UPDATES} updates instead of "
             f"{FULL_UPDATES}",
    )
    parser.add_argument("--updates", type=int, default=None,
                        help="override the synthetic log size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vm-iters", type=int, default=50_000)
    parser.add_argument("--no-inject", action="store_true",
                        help="skip the fault-injection sweep stage")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="report path ('-' to skip writing)")
    args = parser.parse_args(argv)

    n_updates = args.updates
    if n_updates is None:
        n_updates = QUICK_UPDATES if args.quick else FULL_UPDATES
    out_path = None if args.out == "-" else args.out
    report = run_hotpaths(
        n_updates=n_updates, seed=args.seed, vm_iters=args.vm_iters,
    )
    if not args.no_inject:
        report["inject_sweep"] = bench_inject_sweep(
            seed=args.seed, max_per_site=1 if args.quick else 3,
        )
    if out_path is not None:
        write_report(report, out_path)
    print(render_summary(report))
    if out_path is not None:
        print(f"wrote {os.path.relpath(out_path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
