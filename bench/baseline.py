"""Measure the bench's own run-to-run spread and record a baseline.

    python3 bench/baseline.py [--sets 2] [--seeds 10] [--seconds S]
                              [--workload NAME ...] [--out bench/baseline.json]

Runs ``bench/run.py`` untraced once per (set, seed, workload), seeds
1..N in every set, workloads alternating within each seed.  For every
numeric metric it records, per workload and set, the median and the
quartile spread ``(q3 - q1) / median`` over the seeds
(``statistics.quantiles(values, n=4)``).  For the ``end_to_end`` metrics
of ``BENCHMARK.json`` it also reports how far each later set's median
moved from the first set's in the metric's worse direction; such a
metric passes when its spread stays under a third of its bound
(``setup_s`` exempt) and no median moved by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import OUT, WORKLOADS, load_contract  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"baseline-{workload}-{seed}.json")
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--json", path]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode})")
    with open(path) as f:
        return json.load(f)[0]


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workload", nargs="*", choices=WORKLOADS, default=None)
    ap.add_argument("--out", default=os.path.join(BENCH, "baseline.json"))
    args = ap.parse_args(argv)
    contract = load_contract()
    seconds = args.seconds or contract["run_seconds"]
    names = args.workload or list(WORKLOADS)

    # workload -> metric -> (unit, one list of values per set)
    values: Dict[str, Dict[str, tuple]] = {w: {} for w in names}
    for s in range(args.sets):
        for seed in range(1, args.seeds + 1):
            for w in names:
                result = run_once(w, seed, seconds)
                for metric, (value, unit) in result["metrics"].items():
                    if isinstance(value, bool):
                        continue
                    _, sets = values[w].setdefault(
                        metric, (unit, [[] for _ in range(args.sets)]))
                    sets[s].append(value)
                print(f"set {s + 1} seed {seed} {w} done", file=sys.stderr)

    specs = {m["name"]: m for m in contract["end_to_end"]}
    ok = True
    table: Dict[str, Dict[str, dict]] = {}
    for w in names:
        table[w] = {}
        for metric, (unit, series) in values[w].items():
            sets = [quartiles(v) for v in series]
            row = {"unit": unit, "sets": sets, "values": series,
                   "max_spread": max(st["spread"] for st in sets)}
            table[w][metric] = row
            spec = specs.get(metric)
            if spec is None:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            first = sets[0]["median"]
            row["worst_drift"] = max(
                (sign * (st["median"] - first) / first for st in sets[1:]),
                default=0.0,
            )
            row["bound"] = spec["bound"]
            row["pass"] = row["worst_drift"] <= spec["bound"] and (
                metric == "setup_s" or row["max_spread"] < spec["bound"] / 3
            )
            ok = ok and row["pass"]
            print(f"{w:8s} {metric:18s} median {first:12.4f} {unit:6s}"
                  f" spread {row['max_spread']:6.3f}"
                  f" drift {row['worst_drift']:+6.3f} bound {spec['bound']:.2f}"
                  f" {'ok' if row['pass'] else 'FAIL'}")
    with open(args.out, "w") as f:
        json.dump({
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "seconds": seconds,
            "sets": args.sets,
            "seeds": list(range(1, args.seeds + 1)),
            "pass": ok,
            "workloads": table,
        }, f, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
