"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``list-faults`` — the Table 2 registry.
* ``study`` — the Section 2 empirical-study aggregates.
* ``run`` — one (fault, solution) experiment with full reporting.
* ``matrix`` — the recoverability row for one solution over every
  registered fault (``--jobs N`` fans cells out over a process pool).
* ``matrix-all`` — the full fault x solution sweep in parallel
  (``--jobs N``), with per-family recoverability and a JSON report
  under ``results/``.
* ``analyze`` — static-analysis statistics for one target system.
* ``serve-bench`` — live-traffic p50/p99 during a mitigation,
  quarantine-scoped vs stop-the-world; exits non-zero when the p99
  ratio falls below its floor.
* ``inject-sweep`` — crash/torn/bitflip injection at every enumerable
  site of the recovery pipeline; exits non-zero unless every cell ends
  verified-consistent.
* ``fuzz-sweep`` — deterministic crash-consistency fuzzer over the
  guest persistence layer; discovers, minimizes and registers new
  fault-family scenarios (f13+) past the seeded Table-2 set.
* ``cluster-sweep`` — every registered fault injected into one shard
  of a replicated cluster; replica promotion, online re-recovery and
  byte-identical promoted-vs-quiesced digests per cell.
* ``cluster-status`` — demo heal: wedge one shard, heal it with
  ``ShardManager.heal`` (detect, confirm, promote ... resync), print
  the verdict and the per-shard health table.

The four sweeps (``matrix-all``, ``inject-sweep``, ``fuzz-sweep`` and
``cluster-sweep``) share one flag set, ``--seed --quick --out``, plus
the matrix's ``--jobs`` and fuzz's ``--emit-registry``.  Each
drift-checks against the committed report at ``--out`` when there is
one: ``--quick`` runs the CI subset, fails on drift and writes nothing;
a full run prints the drift lines and rewrites ``--out``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.faults.registry import ALL_SCENARIOS
from repro.faults.study import (
    bugs_per_system,
    consequence_distribution,
    propagation_distribution,
    reproduced_family_distribution,
    root_cause_distribution,
)
from repro.harness.experiment import SOLUTIONS, run_experiment
from repro.harness.report import render_bars, render_table


def _cmd_list_faults(_args) -> int:
    rows = [
        [s.fid, s.system, s.fault, s.consequence, s.kind]
        for s in ALL_SCENARIOS
    ]
    print(render_table(
        "Reproduced hard faults (paper Table 2)",
        ["id", "system", "fault", "consequence", "kind"],
        rows,
    ))
    return 0


def _cmd_study(_args) -> int:
    counts = bugs_per_system()
    rows = [[s, o, n] for (s, o), n in sorted(counts.items())]
    print(render_table("Study dataset (paper Table 1)",
                       ["system", "type", "cases"], rows))
    print()
    print(render_bars("Root causes (Figure 2)", root_cause_distribution(),
                      unit="%"))
    print()
    print(render_bars("Consequences (Figure 3)", consequence_distribution(),
                      unit="%"))
    print()
    print(render_bars("Propagation (Section 2.6)",
                      propagation_distribution(), unit="%"))
    print()
    fam_rows = [
        [family, stats["scenarios"], stats["systems"]]
        for family, stats in reproduced_family_distribution().items()
    ]
    print(render_table(
        "Reproduced fault families (seeded + fuzzer-discovered)",
        ["family", "scenarios", "systems"],
        fam_rows,
    ))
    return 0


def _report_result(result) -> None:
    if not result.manifested:
        print("the fault did not manifest with this seed")
        return
    print(f"detected: "
          f"{result.detection_fault.kind + ' at ' + result.detection_fault.location if result.detection_fault else result.detection_violation}")
    print(f"confirmed hard (recurs across restart): {result.confirmed_hard}")
    m = result.mitigation
    if m is None:
        return
    print(f"mitigation [{m.solution}]: recovered={m.recovered} "
          f"attempts={m.attempts} time={m.duration_seconds:.1f}s "
          f"discarded={m.discarded_pct:.2f}%")
    if m.consistent is not None:
        print(f"consistent: {m.consistent}"
              + (f" violations: {m.violations}" if m.violations else ""))
    if m.notes:
        print(f"notes: {m.notes}")


def _cmd_run(args) -> int:
    result = run_experiment(args.fault, args.solution, seed=args.seed)
    _report_result(result)
    return 0 if (result.mitigation and result.mitigation.recovered) else 1


def _matrix_row(fid: str, outcome) -> List[object]:
    if not outcome.ok:
        return [fid, "ERR", "-", "-", "-"]
    m = outcome.result().mitigation
    return [
        fid,
        "Y" if (m and m.recovered) else "N",
        m.attempts if m else "-",
        f"{m.discarded_pct:.2f}%" if m else "-",
        {True: "Y", False: "N", None: "-"}[m.consistent if m else None],
    ]


def _cmd_matrix(args) -> int:
    from repro.harness.matrix import expand_matrix, run_matrix

    specs = expand_matrix(solutions=[args.solution], seeds=[args.seed])
    report = run_matrix(
        specs, jobs=args.jobs,
        progress=lambda done, total, cell: print(
            f"  [{done}/{total}] {cell.progress_line}", file=sys.stderr),
    )
    by_key = report.by_key()
    rows = [
        _matrix_row(spec.fid, by_key[spec.key]) for spec in specs
    ]
    print(render_table(
        f"Recoverability row for {args.solution} (seed {args.seed}, "
        f"{report.jobs} worker{'s' if report.jobs != 1 else ''}, "
        f"{report.wall_seconds:.1f}s)",
        ["fault", "recovered", "attempts", "discarded", "consistent"],
        rows,
    ))
    return 0 if report.n_errors == 0 else 1


def _cmd_analyze(args) -> int:
    from repro.systems import ALL_ADAPTERS

    cls = ALL_ADAPTERS[args.system]
    static = cls.static_artifacts()
    module, analysis = static.module, static.analysis
    rows = [
        ["IR instructions", module.instr_count()],
        ["functions", len(module.functions)],
        ["PM instructions", len(analysis.pm.pm_instr_iids)],
        ["PM registers", len(analysis.pm.pm_registers)],
        ["PDG nodes", analysis.pdg.node_count()],
        ["PDG edges", analysis.pdg.edge_count()],
        ["points-to iterations", analysis.points_to.iterations],
        ["trace GUIDs", len(static.guid_map)],
    ]
    print(render_table(f"Static analysis of {args.system}",
                       ["metric", "value"], rows))
    return 0


def _cmd_serve_bench(args) -> int:
    from repro.harness.serve_bench import P99_RATIO_FLOOR, bench_live_traffic
    from repro.harness.sweep import write_report

    if args.quick:
        params = dict(n_requests=240, keyspace=192, release_after=96)
    else:
        params = dict(n_requests=300, keyspace=192, release_after=120)
    if args.requests is not None:
        params["n_requests"] = args.requests
    section = bench_live_traffic(
        fid=args.fid, solution=args.solution, seed=args.seed, **params
    )
    scoped = section["quarantine"]
    stw = section["stop_the_world"]
    print(
        f"live traffic ({args.fid}/{args.solution}, "
        f"{section['n_requests']} requests):"
    )
    for label, side in (("scoped", scoped), ("stop-the-world", stw)):
        d = side["during_mitigation"]
        print(
            f"  {label:<15} during-mitigation p50 {d['p50'] * 1000:7.1f}ms  "
            f"p99 {d['p99'] * 1000:7.1f}ms  p999 {d['p999'] * 1000:7.1f}ms  "
            f"(n={d['count']}, budget burned "
            f"{side['error_budget']['burned']}/"
            f"{side['error_budget']['budget']})"
        )
    print(
        f"  p99 ratio {section['stw_over_scoped_p99_ratio']:.1f}x, "
        f"{scoped['quarantine']['stream_keys']} keys quarantined, "
        f"analysis {scoped['analysis_seconds']:.3f}s, "
        f"digests identical"
    )
    write_report(section, args.out)
    if section["stw_over_scoped_p99_ratio"] < P99_RATIO_FLOOR:
        print(f"p99 ratio below the {P99_RATIO_FLOOR}x floor",
              file=sys.stderr)
        return 1
    return 0


#: the sweep subcommands and the harness module that runs each
_SWEEPS = {
    "matrix-all": "matrix",
    "inject-sweep": "inject_sweep",
    "fuzz-sweep": "fuzz_sweep",
    "cluster-sweep": "cluster_sweep",
}


def _run_sweep(args, **options):
    """The sweep subcommands' shared path: the sweep's module runs its
    cells; the sweep core drift-checks and writes."""
    from importlib import import_module

    from repro.harness.sweep import conclude

    sweep = import_module("repro.harness." + _SWEEPS[args.command])
    report = sweep.run_sweep(
        seed=args.seed, quick=args.quick,
        progress=lambda rec: print(f"  {rec.progress_line}", file=sys.stderr),
        **options,
    )
    return report, conclude(report, sweep.DRIFT, args.out, args.quick)


def _cmd_sweep(args) -> int:
    return _run_sweep(args)[1]


def _cmd_matrix_sweep(args) -> int:
    return _run_sweep(args, jobs=args.jobs)[1]


def _cmd_fuzz_sweep(args) -> int:
    report, code = _run_sweep(args)
    if args.emit_registry and not args.quick:
        from repro.faults import fuzzed
        from repro.harness.fuzz_sweep import emit_registry

        emit_registry(report.discoveries, fuzzed.__file__)
        print(f"rewrote FUZZED_FAULT_SPECS in {fuzzed.__file__} "
              f"({len(report.discoveries)} entries)", file=sys.stderr)
    return code


def _cmd_cluster_status(args) -> int:
    from repro.distributed.cluster import Cluster, ClusterClient
    from repro.distributed.shardmgr import ShardManager
    from repro.faults.registry import scenario_by_id
    from repro.harness.experiment import ExperimentContext

    scenario = scenario_by_id(args.fid)
    cluster = Cluster(
        n_nodes=args.nodes, n_clients=1,
        adapter_cls=scenario.adapter_cls(), seed=args.seed, replication=2,
    )
    client = ClusterClient(cluster, 0)
    for key in range(40):
        client.insert(key, 500 + key)
    target = 0
    ctx = ExperimentContext(cluster.nodes[target], scenario, args.seed)
    ctx.oracle = cluster.oracles[target]
    scenario.trigger(ctx)
    mgr = ShardManager(cluster, solution="arthas", seed=args.seed)
    report = mgr.heal(target, ctx)
    if not report.manifested:
        print(f"{args.fid} did not manifest on shard {target}",
              file=sys.stderr)
        return 1
    print(f"heal({args.fid} @ shard {target}): "
          f"confirmed_hard={report.confirmed_hard}, "
          f"recovered={report.recovered} via {report.recovered_by or '-'}, "
          f"demoted={report.demoted}, "
          f"resync_replayed={report.resync_replayed}")
    rows = [
        [row["node"], row["status"], row["score"], row["verdicts"],
         row["mitigations"]]
        for row in mgr.health_table()
    ]
    print(render_table(
        "Cluster shard health",
        ["shard", "status", "score", "verdicts", "mitigations"],
        rows,
    ))
    return 0 if report.recovered else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Arthas reproduction: hard-fault recovery for PM systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-faults", help="list the registered fault scenarios")
    sub.add_parser("study", help="print the Section 2 study aggregates")

    run_p = sub.add_parser("run", help="run one fault/solution experiment")
    run_p.add_argument("--fault", required=True,
                       choices=[s.fid for s in ALL_SCENARIOS])
    run_p.add_argument("--solution", default="arthas", choices=SOLUTIONS)
    run_p.add_argument("--seed", type=int, default=0)

    matrix_p = sub.add_parser("matrix",
                              help="all registered faults for one solution")
    matrix_p.add_argument("--solution", default="arthas", choices=SOLUTIONS)
    matrix_p.add_argument("--seed", type=int, default=0)
    matrix_p.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: CPU count; "
                               "1 = exact serial path)")

    analyze_p = sub.add_parser("analyze", help="static-analysis statistics")
    analyze_p.add_argument("--system", required=True,
                           choices=["memcached", "redis", "cceh",
                                    "pelikan", "pmemkv", "levelhash"])

    serve_p = sub.add_parser(
        "serve-bench",
        help="live-traffic recovery server: p50/p99 under fire, "
             "quarantine-scoped vs stop-the-world mitigation",
    )
    serve_p.add_argument("--fid", default="f1",
                         help="fault scenario to trigger mid-stream")
    serve_p.add_argument("--solution", default="arthas-bi",
                         help="mitigation solution (default arthas-bi)")
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument("--requests", type=int, default=None,
                         help="stream length (default 300; --quick 240)")
    serve_p.add_argument("--quick", action="store_true",
                         help="smaller keyspace/stream (CI smoke mode)")
    serve_p.add_argument("--out", default="results/serve_bench.json",
                         help="JSON report path ('-' to skip writing)")

    def sweep_parser(name, help, seed, quick):
        committed = "results/" + name.replace("-", "_") + ".json"
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=seed,
                       help="sweep seed; cells are deterministic per "
                            "seed (default %(default)s)")
        p.add_argument("--quick", action="store_true",
                       help=f"{quick} (CI mode): drift-check it against "
                            f"the committed report at --out, write nothing")
        p.add_argument("--out", default=committed,
                       help="JSON report path ('-' to skip writing); a "
                            "full run drift-checks against it, then "
                            "rewrites it")
        return p

    matrix_all_p = sweep_parser(
        "matrix-all",
        "the full fault x solution sweep over a process pool, "
        "with per-family recoverability",
        seed=0, quick="f4, f17 and f21 under every solution",
    )
    matrix_all_p.add_argument("--jobs", type=int, default=None,
                              help="worker processes (default: CPU count; "
                                   "1 = exact serial path)")
    sweep_parser(
        "inject-sweep",
        "inject a fault at every enumerable recovery-pipeline site "
        "and demand verified-consistent pools",
        seed=0, quick="one occurrence per site family",
    )
    fuzz_p = sweep_parser(
        "fuzz-sweep",
        "fuzz the guest persistence layer for new crash-consistency "
        "and kernel-PM fault families; minimize and register finds",
        seed=2026, quick="the first 10 of 40 trials per system",
    )
    fuzz_p.add_argument("--emit-registry", action="store_true",
                        help="rewrite the generated FUZZED_FAULT_SPECS "
                             "block in faults/fuzzed.py (full runs only)")
    sweep_parser(
        "cluster-sweep",
        "inject every registered fault into one shard of a "
        "replicated cluster and demand promotion-healed, "
        "digest-identical convergence per cell",
        seed=11, quick="f1+f5 and two heal-crash cells",
    )

    cstatus_p = sub.add_parser(
        "cluster-status",
        help="demo heal: wedge one shard, run the promotion protocol, "
             "print the per-shard health table",
    )
    cstatus_p.add_argument("--fid", default="f1",
                           help="fault scenario to wedge shard 0 with")
    cstatus_p.add_argument("--nodes", type=int, default=3)
    cstatus_p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list-faults": _cmd_list_faults,
        "study": _cmd_study,
        "run": _cmd_run,
        "matrix": _cmd_matrix,
        "matrix-all": _cmd_matrix_sweep,
        "analyze": _cmd_analyze,
        "serve-bench": _cmd_serve_bench,
        "inject-sweep": _cmd_sweep,
        "fuzz-sweep": _cmd_fuzz_sweep,
        "cluster-sweep": _cmd_sweep,
        "cluster-status": _cmd_cluster_status,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
