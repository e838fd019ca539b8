"""End-to-end cluster benchmark: steady YCSB, churn, and heal under fire.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1 | --traced] [--json OUT]

Runs each selected workload (default: all four) in its own child
process (``bench/loadgen.py``) and prints one line per metric,
``workload metric value unit``, then one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  The JSON carries the
``end_to_end`` metrics named in ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``); with several workloads each name
is prefixed ``workload.``.

Untraced runs also start ``SETUP_SAMPLES`` set-up-only children and
report the median ``setup_s``.  Traced runs print the layers ranked by
share of wall time, write sampled span records under ``bench/out/``,
and fail when the budget leaves more than 5% of wall unaccounted.

Exits non-zero on any wrong answer, failed op, unrecovered heal, broken
causal cut, unclosed budget, or missing source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("ycsb_a", "churn", "heal_f1", "heal_f2")
#: set-up-only children per untraced run, besides the measured one
SETUP_SAMPLES = 2
#: one invocation of one workload must finish within this (seconds)
TIME_LIMIT = 170.0


class BenchError(RuntimeError):
    pass


def load_contract() -> Dict[str, List[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_child(args: List[str], deadline: float) -> dict:
    """Run ``loadgen.py`` with ``args``; return its last-line JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(BENCH, "loadgen.py"), *args,
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child exited {proc.returncode}: {' '.join(args)}"
        )
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", repr(seconds)]
    if trace:
        # the same work untraced: tracing overhead is the ratio of busy
        # time per op between the two runs
        plain = run_child(common + ["--trace", "0"], deadline)
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
        result = run_child(common + ["--trace", "1", "--spans", spans],
                           deadline)
        per_op = result["busy_s"] / result["served"]
        plain_per_op = plain["busy_s"] / plain["served"]
        result["metrics"]["tracing_overhead_pct"] = [
            100.0 * (per_op / plain_per_op - 1.0), "%"]
        return result
    setups = [
        run_child(common + ["--setup-only"], deadline)["metrics"]["setup_s"][0]
        for _ in range(SETUP_SAMPLES)
    ]
    result = run_child(common + ["--trace", "0"], deadline)
    setups.append(result["metrics"]["setup_s"][0])
    result["metrics"]["setup_s"] = [statistics.median(setups), "s"]
    result["setup_samples"] = setups
    return result


def report(result: dict, trace: bool) -> None:
    name = result["workload"]
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name} {metric} {value} {unit}")
    if result.get("recovered_by"):
        print(f"{name} recovered_by {result['recovered_by']} -")
    for problem in result.get("mismatches", []):
        print(f"{name} MISMATCH {problem}")
    if trace:
        metrics = result["metrics"]
        wall = result["wall_s"]
        rows = {k[:-len(".self_s")]: v for k, (v, _u) in metrics.items()
                if k.endswith(".self_s")}
        rows.update(gc=metrics["gc.pause_s"][0], tracer=metrics["tracer_s"][0],
                    idle=metrics["idle_s"][0], host=metrics["host_s"][0],
                    unaccounted=metrics["unaccounted_s"][0])
        print(f"{name} budget: wall {wall:.3f} s, layers ranked by share")
        for layer, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
            print(f"{name}   {layer:14s} {seconds:9.4f} s "
                  f"{100.0 * seconds / wall:6.2f} %")


def ok(result: dict, trace: bool) -> bool:
    good = bool(result["correct"])
    if trace:
        good = good and bool(result["metrics"]["budget_closes"][0])
    return good


def summary(results: List[dict], contract: Dict[str, List[dict]],
            trace: bool) -> dict:
    wanted = contract["per_layer" if trace else "end_to_end"]
    prefix = len(results) > 1
    metrics: Dict[str, dict] = {}
    for result in results:
        for spec in wanted:
            if spec["name"] not in result["metrics"]:
                raise BenchError(f"{result['workload']} did not report "
                                 f"{spec['name']}")
            value, _unit = result["metrics"][spec["name"]]
            key = f"{result['workload']}.{spec['name']}" if prefix else spec["name"]
            metrics[key] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": all(ok(r, trace) for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per workload "
                         "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--json", default=None, help="write every result here")
    args = ap.parse_args(argv)
    trace = bool(args.trace or args.traced)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no source tree at {SRC}", file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, trace)
            report(result, trace)
            results.append(result)
        final = summary(results, contract, trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
