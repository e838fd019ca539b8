"""Cluster-level fault sweep: node faults under replica promotion.

The single-node matrix proves each f1–f24 reproducer can be mitigated;
this sweep proves the *cluster* survives them.  Every cell injects one
scenario into one shard of a 3-node, replication-2 cluster and calls
the one cluster heal, :meth:`ShardManager.heal` (detect → confirm →
promote → mitigate → rebuild → cascade → resync/handoff).  The sweep
keeps only the cluster set-up, the trigger, the traffic and the settle
checks.  The acceptance bar is checked per cell:

* **recovery** — the sick node's supervised ladder recovers (or, when
  every rung fails, the ``rebuild`` phase abandons the pool and resync
  re-bases the node from a live mirror), the node rejoins demoted, and
  the delta tail it missed is applied;
* **digest equality** — the cell is run twice with identical traffic:
  a *promoted* run that serves a read/write window between promotion
  and mitigation (online re-recovery), and a *quiesced* oracle run
  that serves the same window only after mitigation completes — the
  heal's ``serve(phase)`` callback places the window.  Both
  runs see the same oplog, the same vector clocks and the same replica
  sets (the window runs while the target is down either way), so after
  cascade + resync every node's pool digest must be byte-identical
  across the two runs — serving the window before mitigation changed
  *when* work happened, never *what* state converged;
* **causal cut** — no surviving oplog op causally depends on a
  discarded one (``vc_less`` over the cluster clocks);
* **serving** — after the heal, the last surviving write of every
  non-discarded, non-poisoned key is served by the current primary,
  and window writes aimed at the sick arc were answered by replicas
  (never by the down node).

A third, fault-free *control* run per cell walks the identical
promote/window/resync dance on a healthy cluster; keys it fails to
serve afterwards are the underlying system's own losses (level-hash
bucket evictions under window inserts, for instance) and are excluded
from the fault runs' serving bar — the sweep charges the cluster only
for losses the *fault* caused.  Cells whose scenario does not manifest
at cluster scale (the trigger's layout assumptions don't survive the
sharded keyspace; f13/f18 today) are recorded honestly as
``manifested: false`` and converge vacuously.

Six extra cells re-run f1 with a *second* fault crashed into the heal
itself (``cluster.promote`` / ``cluster.resync`` / ``cluster.handoff``
/ ``cluster.compact`` injection sites) or into the delta-replication
shipping path (``cluster.ship_delta``); the same bar applies — the
journaled phases must converge on retry in both runs, and a crashed
shipping round must re-apply idempotently when the serving client
retries it.

Digests are compared across the two in-process runs; the committed
report (``results/cluster_sweep.json``) records every cell, and
``python -m repro cluster-sweep --quick`` re-runs the quick subset and
drift-checks each of its cells, whole, against the committed one
through the shared sweep core (:mod:`repro.harness.sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.distributed.cluster import Cluster, ClusterClient, minimal_clocks
from repro.distributed.shardmgr import HealReport, ShardManager
from repro.errors import InjectedCrash, Trap
from repro.faultinject import InjectionPlan, InjectionSpec
from repro.faults.fuzzed import FuzzedScenario, build_fuzzed_scenarios
from repro.faults.registry import ALL_SCENARIOS, scenario_by_id
from repro.harness.experiment import ExperimentContext
from repro.harness.supervisor import pool_digest
from repro.harness.sweep import DriftRule, run_cells
from repro.systems.common import ABSENT
from repro.workloads.generators import VALUE_BASE, MixedWorkload

DEFAULT_SWEEP_SEED = 11
N_NODES = 3
N_CLIENTS = 2
REPLICATION = 2
#: node-local post-trigger traffic on the sick shard (lets in-flight
#: faults surface the way the single-node harness sees them)
POST_TRIGGER_OPS = 30

#: second-fault cells: crash the heal itself at its injection sites
#: (all run against the f1 wedge, the scenario whose full ladder the
#: promotion tests exercise)
CRASH_FID = "f1"
CRASH_CELLS: Tuple[Tuple[str, int], ...] = (
    ("cluster.promote", 1),
    ("cluster.resync", 1),
    ("cluster.resync", 2),
    ("cluster.handoff", 1),
    # replication sites: a crashed shipping round is retried by the
    # serving client (idempotent re-apply); a crashed compaction is
    # retried by the handoff journal step (fresh capture)
    ("cluster.ship_delta", 1),
    ("cluster.compact", 1),
)
CRASH_TARGET = 1

#: CI quick subset — a strict subset of the full sweep's cells
QUICK_FIDS = ("f1", "f5")
QUICK_CRASH_CELLS: Tuple[Tuple[str, int], ...] = (
    ("cluster.promote", 1),
    # every full shipping round ends in a stream truncation
    ("cluster.ship_delta", 1),
    ("cluster.compact", 1),
)


def target_shard(fid: str) -> int:
    """Deterministic target rotation, stable under subsetting: derived
    from the fid number, not the position in the sweep's cell list."""
    return (int(fid[1:]) - 1) % N_NODES


# ----------------------------------------------------------------------
@dataclass
class ModeResult:
    """One run of a cell in one serving mode: the heal's report plus
    what the sweep measured around it."""

    heal: HealReport
    health_score: int = 0
    #: per-node pool digests after the heal settled
    digests: List[int] = field(default_factory=list)
    causal_cut_ok: bool = False
    serving_problems: List[str] = field(default_factory=list)
    #: window accounting
    window_reads: int = 0
    window_writes: int = 0
    window_routed_to_sick: int = 0
    injections_fired: bool = True
    #: control mode only: keys the fault-free cluster fails to serve
    #: after the identical promote/window/resync dance (the system's
    #: own losses, e.g. level-hash bucket evictions)
    lost_keys: set = field(default_factory=set)


@dataclass
class CellOutcome:
    """One (scenario, target shard[, crash site]) cell of the sweep."""

    fid: str
    system: str
    kind: str
    target: int
    site: str  # "" or e.g. "cluster.resync#2"
    seed: int
    manifested: bool = False
    confirmed_hard: bool = False
    promoted: bool = False
    recovered: bool = False
    recovered_by: str = ""
    crash_retries: int = 0
    discarded_ops: int = 0
    cascaded_ops: int = 0
    cascade_rounds: int = 0
    resync_replayed: int = 0
    demoted: bool = False
    health_score: int = 0
    digests: List[int] = field(default_factory=list)
    digests_match: bool = False
    causal_cut_ok: bool = False
    serving_ok: bool = False
    notes: str = ""

    @property
    def cell_key(self) -> str:
        key = f"{self.fid}@n{self.target}"
        return f"{key}+{self.site}" if self.site else key

    @property
    def converged(self) -> bool:
        """The ISSUE's per-cell bar (vacuously true when the fault
        never manifested — nothing to recover from)."""
        if not self.manifested:
            return True
        return (
            self.promoted
            and self.recovered
            and self.demoted
            and self.digests_match
            and self.causal_cut_ok
            and self.serving_ok
        )

    @property
    def progress_line(self) -> str:
        return f"{self.cell_key}: {'converged' if self.converged else 'FAILED'}"

    def to_json(self) -> Dict[str, object]:
        out = {
            "cell": self.cell_key,
            "fid": self.fid,
            "system": self.system,
            "kind": self.kind,
            "target": self.target,
            "site": self.site,
            "seed": self.seed,
            "manifested": self.manifested,
            "confirmed_hard": self.confirmed_hard,
            "promoted": self.promoted,
            "recovered": self.recovered,
            "recovered_by": self.recovered_by,
            "crash_retries": self.crash_retries,
            "discarded_ops": self.discarded_ops,
            "cascaded_ops": self.cascaded_ops,
            "cascade_rounds": self.cascade_rounds,
            "resync_replayed": self.resync_replayed,
            "demoted": self.demoted,
            "health_score": self.health_score,
            "digests": list(self.digests),
            "digests_match": self.digests_match,
            "causal_cut_ok": self.causal_cut_ok,
            "serving_ok": self.serving_ok,
            "converged": self.converged,
        }
        if self.notes:
            out["notes"] = self.notes
        return out


@dataclass
class ClusterSweepReport:
    """Outcome of one cluster fault sweep."""

    sweep_seed: int
    n_nodes: int = N_NODES
    replication: int = REPLICATION
    cells: List[CellOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        """The sweep's verdict: every cell converged."""
        return all(c.converged for c in self.cells)

    def to_json(self) -> Dict[str, object]:
        manifested = [c for c in self.cells if c.manifested]
        return {
            "sweep_seed": self.sweep_seed,
            "n_nodes": self.n_nodes,
            "replication": self.replication,
            "cells_total": len(self.cells),
            "cells_manifested": len(manifested),
            "cells_recovered": sum(1 for c in manifested if c.recovered),
            "cells_converged": sum(1 for c in self.cells if c.converged),
            "all_converged": self.passed,
            "cells": [c.to_json() for c in self.cells],
        }

    def summary(self) -> str:
        manifested = [c for c in self.cells if c.manifested]
        lines = [
            f"cluster-sweep: {len(manifested)}/{len(self.cells)} cells "
            f"manifested, {sum(1 for c in manifested if c.recovered)} "
            f"recovered via promotion, "
            f"{sum(1 for c in self.cells if c.converged)}/{len(self.cells)} "
            f"converged ({self.wall_seconds:.1f}s wall)"
        ]
        for c in self.cells:
            flags = []
            if not c.manifested:
                flags.append("no-manifest")
            else:
                flags.append("recovered" if c.recovered else "UNRECOVERED")
                flags.append("digests=" + ("ok" if c.digests_match else "DIFF"))
                flags.append("cut=" + ("ok" if c.causal_cut_ok else "BROKEN"))
                flags.append("serve=" + ("ok" if c.serving_ok else "FAIL"))
            lines.append(
                f"  {c.cell_key:26s} {c.system:10s} {' '.join(flags)}"
                + (f"  [{c.notes}]" if c.notes else "")
            )
        return "\n".join(lines)


DRIFT = DriftRule(
    identity=("sweep_seed", "n_nodes", "replication"),
    scope=lambda report: [c["cell"] for c in report["cells"]],
    # a quick cell is the same run as its full cell, so the contract is
    # the whole cell record
    contracts=lambda report: {c["cell"]: c for c in report["cells"]},
)


# ----------------------------------------------------------------------
# one cell, one serving mode
# ----------------------------------------------------------------------
def _run_mode(
    scenario,
    target: int,
    seed: int,
    mode: str,
    crash_spec: Optional[Tuple[str, int]] = None,
    skip_keys: frozenset = frozenset(),
) -> ModeResult:
    """Build a fresh cluster, wedge ``target`` with the scenario, heal.

    ``mode`` picks when the serving window runs:

    * ``"promoted"`` — between promotion and mitigation (online
      re-recovery, the mode under test);
    * ``"quiesced"`` — after mitigation completes (the oracle);
    * ``"control"``  — no fault at all: the same phase-A traffic,
      promotion, window and resync on a healthy cluster.  Its
      mis-served keys are the *system's* own losses (e.g. level-hash
      bucket evictions under window inserts) and are excluded from the
      fault runs' serving check via ``skip_keys``.

    Everything else — phase-A traffic, trigger, window keys, cascade,
    resync — is identical, which is what makes the cross-mode digest
    comparison a meaningful "serving changed nothing" proof.
    """
    res = ModeResult(HealReport(node_id=target))
    cluster = Cluster(
        n_nodes=N_NODES,
        n_clients=N_CLIENTS,
        adapter_cls=scenario.adapter_cls(),
        seed=seed,
        replication=REPLICATION,
    )
    clients = [ClusterClient(cluster, i) for i in range(N_CLIENTS)]
    ctx = ExperimentContext(cluster.nodes[target], scenario, seed)
    ctx.oracle = cluster.oracles[target]
    healthy = [n for n in range(N_NODES) if n != target]

    # ---- phase A: cluster traffic (leak triggers consume victims) ----
    n_target = 140 if scenario.kind == "leak" else 28
    target_keys = cluster.keys_for_node(target, n_target)
    bg = {n: cluster.keys_for_node(n, 8) for n in healthy}
    loaded = sorted(target_keys + [k for ks in bg.values() for k in ks])
    for j, key in enumerate(loaded):
        clients[j % N_CLIENTS].insert(key, VALUE_BASE + key)
    # one causal edge rooted on the sick shard (Section 7's r1 -> r2).
    # Table-2 scenarios only: the fuzzed reproducers' injection windows
    # are allocation-layout-sensitive, and the extra insert is enough to
    # shift which window write the spec occurrence perturbs
    if scenario.family == "table2":
        edge_dst = cluster.keys_for_node(healthy[0], 1, start=30_000)[0]
        clients[1].derived_insert(target_keys[0], edge_dst)

    # pre-fault serving baseline: keys the *clean* cluster already fails
    # to serve are the underlying system's own losses (e.g. level-hash
    # bucket evictions) — the fuzzer's ``baseline`` concept, applied to
    # the post-heal serving check
    baseline_lost = _misserved_keys(cluster)

    # window keys: ring-pure (no pool reads), so the control run and
    # both fault runs aim at exactly the same keys; computed before
    # promotion because keys_for_node wants the pre-fault primary
    w_writes = cluster.keys_for_node(target, 3, start=50_000)
    w_writes.append(cluster.keys_for_node(healthy[0], 1, start=50_000)[0])
    w_reads = [k for n in healthy for k in bg[n][:3]] + target_keys[:2]
    w_edge_src = bg[healthy[0]][0]
    w_edge_dst = cluster.keys_for_node(healthy[-1], 1, start=60_000)[0]

    mgr = ShardManager(cluster, solution="arthas", seed=seed)
    skip_all = set(skip_keys) | baseline_lost

    def shipped(fn):
        """One client-level retry across a crashed replication round.

        A crash injected at ``cluster.ship_delta`` surfaces at the
        serving edge — group commit drains inside the client call —
        with no partial credit (a node's stream pointer advances only
        per fully-applied delta), so the retried call re-applies the
        queued deltas idempotently.  Inert for every other cell: the
        heal-phase sites never fire from client traffic.
        """
        try:
            return fn()
        except InjectedCrash:
            return fn()

    def serve_window() -> None:
        for k in w_reads:
            value = shipped(lambda: clients[0].lookup(k))
            res.window_reads += 1
            if value == ABSENT and mode != "control" and k not in skip_all:
                res.serving_problems.append(f"window read miss: key {k}")
        for k in w_writes:
            rec = shipped(lambda: clients[0].insert(k, VALUE_BASE + k + 1))
            res.window_writes += 1
            if rec.node == target:
                res.window_routed_to_sick += 1
        shipped(lambda: clients[1].derived_insert(w_edge_src, w_edge_dst))
        res.window_writes += 1

    if mode == "control":
        # same dance, no fault: promote, serve, rejoin
        mgr.promote(target)
        serve_window()
        mgr.resync(target)
        res.lost_keys = _misserved_keys(cluster)
        return res

    # ---- trigger + node-local post-trigger traffic on the shard ----
    trapped = False
    scenario.trigger(ctx)
    burst = MixedWorkload(
        seed=seed * 31 + 7,
        insert_ratio=scenario.post_mix[0],
        get_ratio=scenario.post_mix[1],
        exclude=lambda k: scenario.exclude_key(ctx, k),
    )
    burst._next_key = 2_000_000  # node-local noise, out of the cluster keyspace
    try:
        for op in burst.ops(POST_TRIGGER_OPS):
            scenario.apply_op(ctx, op)
    except Trap:
        trapped = True

    # ---- the heal, with the window at its mode's slot ----
    window_after = "promote" if mode == "promoted" else "mitigate"

    def serve(phase: str) -> None:
        if phase == window_after:
            serve_window()

    plan = (
        InjectionPlan([InjectionSpec(crash_spec[0], crash_spec[1], "crash")])
        if crash_spec is not None
        else None
    )
    res.heal = mgr.heal(target, ctx, trapped, plan, serve)
    if not res.heal.manifested:
        return res  # the fault did not manifest at cluster scale
    if plan is not None:
        res.injections_fired = plan.all_fired
    res.health_score = int(mgr.health_table()[target]["score"])
    if not res.heal.recovered:
        return res

    # ---- settle checks; digests first (lookups bump PM refcounts) ----
    res.digests = [
        pool_digest(n.pool, n.allocator) for n in cluster.nodes
    ]
    res.causal_cut_ok = _causal_cut_ok(cluster)
    res.serving_problems.extend(
        _serving_check(cluster, scenario, ctx, clients[0], skip_all)
    )
    return res


def _misserved_keys(cluster: Cluster) -> set:
    """Keys whose last acked write the cluster fails to serve right now.

    Direct node lookups (no client clock exchange); called before the
    trigger, so the result is the fault-free serving baseline.
    """
    lost = set()
    last = {}
    for op in cluster.oplog:
        last[op.key] = op
    for key in sorted(last):
        op = last[key]
        want = ABSENT if op.kind == "delete" else op.value
        if cluster.nodes[cluster.node_for(key)].lookup(key) != want:
            lost.add(key)
    return lost


def _causal_cut_ok(cluster: Cluster) -> bool:
    """No surviving op causally depends on a discarded one (compared
    against the minimal discarded clocks only)."""
    log = cluster.oplog
    minimal = minimal_clocks(op.vc for op in log if op.discarded)
    return not log.surviving_rows_after(minimal)


def _serving_check(cluster, scenario, ctx, client, skip_keys) -> List[str]:
    """Every key's last surviving cluster write is served post-heal.

    Keys whose history contains a discarded op are skipped (recovery
    legitimately rewound them), as are scenario-excluded keys (poisoned
    buckets are the fault's blast radius, bounded separately by the
    single-node matrix) and ``skip_keys`` — the pre-fault baseline
    losses plus the control run's losses, i.e. keys the underlying
    system drops even without the fault.
    """
    problems: List[str] = []
    last = {}
    rewound = set()
    for op in cluster.oplog:
        if op.discarded:
            rewound.add(op.key)
        else:
            last[op.key] = op
    for key in sorted(last):
        if key in rewound or key in skip_keys \
                or scenario.exclude_key(ctx, key):
            continue
        op = last[key]
        want = ABSENT if op.kind == "delete" else op.value
        try:
            got = client.lookup(key)
        except Trap as exc:  # pragma: no cover - a served read must not trap
            problems.append(f"key {key}: lookup trapped ({exc})")
            continue
        if got != want:
            problems.append(f"key {key}: served {got}, last write {want}")
    return problems


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def _fresh_scenario(fid: str):
    """A fresh scenario instance (fuzzed reproducers cache per-run
    telemetry on themselves, so the two modes must not share one)."""
    registered = scenario_by_id(fid)
    if isinstance(registered, FuzzedScenario):
        for scenario in build_fuzzed_scenarios():
            if scenario.fid == fid:
                return scenario
        raise KeyError(fid)  # pragma: no cover - registry invariant
    return type(registered)()


def _run_cell(
    fid: str,
    target: int,
    seed: int,
    crash_spec: Optional[Tuple[str, int]] = None,
) -> CellOutcome:
    site = f"{crash_spec[0]}#{crash_spec[1]}" if crash_spec else ""
    # fault-free control: its post-heal losses are the system's, not the
    # cluster's, and get excluded from both fault runs' serving bar
    control = _run_mode(_fresh_scenario(fid), target, seed, "control")
    skip = frozenset(control.lost_keys)
    promoted = _run_mode(
        _fresh_scenario(fid), target, seed, "promoted",
        crash_spec=crash_spec, skip_keys=skip,
    )
    quiesced = _run_mode(
        _fresh_scenario(fid), target, seed, "quiesced",
        crash_spec=crash_spec, skip_keys=skip,
    )
    scenario = scenario_by_id(fid)
    heal = promoted.heal
    cell = CellOutcome(
        fid=fid,
        system=scenario.system,
        kind=scenario.kind,
        target=target,
        site=site,
        seed=seed,
        manifested=heal.manifested,
        confirmed_hard=heal.confirmed_hard,
        promoted=heal.promoted,
        recovered=heal.recovered,
        recovered_by=heal.recovered_by,
        crash_retries=heal.crash_retries,
        discarded_ops=len(heal.discarded_ops),
        cascaded_ops=len(heal.cascaded_ops),
        cascade_rounds=heal.cascade_rounds,
        resync_replayed=heal.resync_replayed,
        demoted=heal.demoted,
        health_score=promoted.health_score,
        digests=list(promoted.digests),
    )
    notes: List[str] = []
    if heal.manifested != quiesced.heal.manifested:
        notes.append("mode disagreement: manifested")
    if heal.recovered != quiesced.heal.recovered:
        notes.append("mode disagreement: recovered")
    cell.digests_match = bool(
        heal.recovered
        and quiesced.heal.recovered
        and promoted.digests
        and promoted.digests == quiesced.digests
    )
    cell.causal_cut_ok = promoted.causal_cut_ok and quiesced.causal_cut_ok
    problems = promoted.serving_problems + quiesced.serving_problems
    if promoted.window_routed_to_sick or quiesced.window_routed_to_sick:
        problems.append("window write routed to the down node")
    if crash_spec is not None and not (
        promoted.injections_fired and quiesced.injections_fired
    ):
        problems.append("injected heal crash never fired")
    cell.serving_ok = heal.recovered and not problems
    if problems:
        notes.append("; ".join(problems[:3]))
    cell.notes = "; ".join(notes)
    return cell


def sweep_cells(
    quick: bool,
) -> List[Tuple[str, int, Optional[Tuple[str, int]]]]:
    """The sweep's ``(fid, target shard, heal-crash spec)`` cells.

    ``quick`` keeps :data:`QUICK_FIDS` and :data:`QUICK_CRASH_CELLS` — a
    strict subset of the full sweep's cells with identical per-cell
    behavior (cell seeds and target shards derive from the fid, not the
    cell list), which is what the quick drift check relies on.
    """
    fids = QUICK_FIDS if quick else [s.fid for s in ALL_SCENARIOS]
    crashes = QUICK_CRASH_CELLS if quick else CRASH_CELLS
    return [(fid, target_shard(fid), None) for fid in fids] + [
        (CRASH_FID, CRASH_TARGET, spec) for spec in crashes
    ]


def run_sweep(
    seed: int = DEFAULT_SWEEP_SEED, quick: bool = False, progress=None,
) -> ClusterSweepReport:
    """Run the cluster fault sweep; deterministic per seed."""
    report = ClusterSweepReport(sweep_seed=seed)
    report.cells, report.wall_seconds = run_cells(
        sweep_cells(quick),
        lambda cell: _run_cell(cell[0], cell[1], seed, crash_spec=cell[2]),
        progress,
    )
    return report
