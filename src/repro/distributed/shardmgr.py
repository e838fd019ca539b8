"""The shard supervisor: replica promotion + online re-recovery.

:meth:`ShardManager.heal` is the one cluster heal.  It detects on the
sick node with the fault lifecycle's own functions —
:func:`make_detector` (which attaches the PM-usage monitor for leak
faults) and :func:`detect` — and, when a failure manifests, confirms
it with :func:`confirm_hard` (restart, recover, watch it recur; Section
4.3).  Then it runs the promotion protocol — four journaled,
individually crash-retried phases that leave the cluster serving
throughout:

1. **promote** — mark the sick node down on the ring.  That single flag
   *is* the promotion: the next live preference node becomes primary
   for every key the sick node fronted, with no data movement (replica
   sets of size R ≥ 2 mean the new primary already holds the data).
2. **mitigate** — the sick node runs the crash-safe degradation ladder
   (:func:`repro.harness.experiment.mitigate_ladder`: purge → rollback
   under crash retries, riding the delta probe engine for bisect
   solutions; the node owns no snapshotter, so the rung below the
   ladder is 2b's rebuild).  Routing skips the node, so healthy
   shards never block; when the caller serves, the ladder runs on a
   worker thread through :func:`repro.reactor.server.run_gated` and the
   caller serves at every park, between mitigation chunks.
2b. **rebuild** — when every ladder rung fails (some faults are beyond
   local repair — the single-node study recovers them only from
   snapshots), the supervisor abandons the pool and *re-replicates*:
   a fresh deployment whose state the resync phase re-bases wholesale
   from a live mirror.  The cluster's mirrors are a snapshot that is
   always current.
3. **cascade** — damage assessment + the promotion-aware causal
   cascade (:meth:`DistributedReactor.cascade_from`): reverted seqs map
   to discarded client ops, orphans are reverted through every live
   replica's log — including orphans whose primary is the demoted node
   itself.
4. **resync + handoff** — re-base the node by copying a live mirror at
   the head of the delta stream (which also settles every revert the
   cascade could not apply while it was down), then demote it (sticky
   replica duty), mark it up and fold the stream's tail.

Each phase records completion in a per-node journal and every
externally-visible effect is idempotent (ring flags are sets, reverts
are pure functions of the log, a rebase reinstalls from scratch), so a
*second* fault arriving mid-promotion — modeled by the
``cluster.promote`` / ``cluster.resync`` / ``cluster.handoff`` crash
sites — converges on retry instead of splitting the brain.

Per-node health scores aggregate detector verdicts, mitigation
attempts, crash retries, resync lag and leak counts; the
``cluster-status`` CLI renders them.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import faultinject
from repro.detector.signature import FailureSignature
from repro.distributed.cluster import Cluster, OpRecord
from repro.distributed.recovery import DistributedReactor
from repro.harness.experiment import (
    MitigationRun,
    _make_reexec,
    confirm_hard,
    detect,
    make_detector,
    mitigate_ladder,
)
from repro.harness.simclock import ReexecDelay, SimClock
from repro.harness.supervisor import StepResult, with_crash_retries
from repro.lang.interp import cooperative_yield
from repro.reactor.server import run_gated


@dataclass
class NodeHealth:
    """Rolled-up per-shard health accounting."""

    node_id: int
    status: str = "serving"  # serving | down | mitigating | resyncing | demoted
    verdicts: int = 0
    mitigations: int = 0
    attempts: int = 0
    crash_retries: int = 0
    resync_lag: int = 0
    leaked_blocks: int = 0
    discarded_ops: int = 0

    @property
    def score(self) -> int:
        """0–100: how much the supervisor trusts this shard right now."""
        s = 100
        if self.status == "down":
            s -= 60
        elif self.status in ("mitigating", "resyncing"):
            s -= 40
        elif self.status == "demoted":
            s -= 15
        s -= 5 * min(self.verdicts, 4)
        s -= 2 * min(self.mitigations, 5)
        s -= min(self.crash_retries, 10)
        s -= min(self.resync_lag // 8, 10)
        s -= min(self.leaked_blocks // 16, 10)
        return max(0, s)

    def to_json(self) -> Dict[str, object]:
        return {
            "node": self.node_id,
            "status": self.status,
            "score": self.score,
            "verdicts": self.verdicts,
            "mitigations": self.mitigations,
            "attempts": self.attempts,
            "crash_retries": self.crash_retries,
            "resync_lag": self.resync_lag,
            "leaked_blocks": self.leaked_blocks,
            "discarded_ops": self.discarded_ops,
        }


class HealJournal:
    """Write-ahead record of completed promotion-protocol phases.

    Re-entering a phase that already completed is a no-op — the
    idempotence anchor for crash-retried heals.  Each heal that finds a
    failure starts the node's journal empty.
    """

    PHASES = ("promote", "mitigate", "rebuild", "cascade", "resync", "handoff")

    def __init__(self) -> None:
        self.completed: Dict[str, dict] = {}

    def done(self, phase: str) -> bool:
        return phase in self.completed

    def complete(self, phase: str, **info) -> None:
        self.completed[phase] = info

    def phases_done(self) -> List[str]:
        return [p for p in self.PHASES if p in self.completed]


@dataclass
class HealReport:
    """One node's trip through the heal."""

    node_id: int
    #: detection found a failure (False: the heal stopped there)
    manifested: bool = False
    #: the restart reproduced it — a potential hard fault (Section 4.3)
    confirmed_hard: bool = False
    #: the detected failure's signature; None when a user check or the
    #: leak monitor flagged it
    signature: Optional[FailureSignature] = None
    promoted: bool = False
    recovered: bool = False
    recovered_by: str = ""
    run: Optional[MitigationRun] = None
    discarded_ops: List[OpRecord] = field(default_factory=list)
    cascaded_ops: List[OpRecord] = field(default_factory=list)
    cascade_rounds: int = 0
    resync_replayed: int = 0
    crash_retries: int = 0
    demoted: bool = False
    phases: List[str] = field(default_factory=list)
    #: wall seconds per phase: detect (with confirm and verdict),
    #: promote, mitigate (with the caller's serving at parks), rebuild,
    #: cascade, resync (with handoff); empty when nothing manifested
    phase_seconds: Dict[str, float] = field(default_factory=dict)


class ShardManager:
    """Supervises one cluster's shards through fault, failover, heal."""

    def __init__(
        self,
        cluster: Cluster,
        solution: str = "arthas",
        seed: int = 0,
    ):
        self.cluster = cluster
        self.reactor = DistributedReactor(cluster)
        self.solution = solution
        self.seed = seed
        self.health: Dict[int, NodeHealth] = {
            i: NodeHealth(i) for i in range(cluster.n_nodes)
        }
        self._journals: Dict[int, HealJournal] = {}

    def journal(self, node_id: int) -> HealJournal:
        return self._journals.setdefault(node_id, HealJournal())

    def note_verdict(self, node_id: int) -> None:
        """The detector flagged this node (confirmed-hard heuristics)."""
        self.health[node_id].verdicts += 1

    # ------------------------------------------------------------------
    # phase 1: promote
    # ------------------------------------------------------------------
    def promote(self, node_id: int, clock: Optional[SimClock] = None) -> int:
        """Mark the node down; its keys fail over to live replicas.

        Crash-retried around the ``cluster.promote`` site: marking down
        is a set-add, so a crash between the ring flag and the journal
        entry re-runs into the same state.  Returns crash retries.
        """
        journal = self.journal(node_id)
        if journal.done("promote"):
            return 0
        clock = clock or SimClock()

        def step() -> StepResult:
            self.cluster.ring.mark_down(node_id)
            faultinject.fire("cluster.promote")
            return StepResult(recovered=True)

        _, retries = with_crash_retries(
            step, self.cluster.nodes[node_id].pool, clock
        )
        journal.complete("promote", crash_retries=retries)
        h = self.health[node_id]
        h.status = "down"
        h.crash_retries += retries
        return retries

    # ------------------------------------------------------------------
    # phase 2: mitigate (the sick node, off the serving path)
    # ------------------------------------------------------------------
    def mitigate(
        self,
        node_id: int,
        ctx,
        scenario,
        outcome,
        detector,
        inject_plan=None,
        gate=None,
        mclock: Optional[SimClock] = None,
    ) -> MitigationRun:
        """Run the degradation ladder on the sick node.

        ``gate`` (a :class:`repro.reactor.server.WorkerGate`) chunks
        the ladder through a thread turnstile so a serving thread can
        interleave healthy-shard reads between mitigation chunks: its
        checkpoint becomes this thread's park hook
        (:func:`repro.lang.interp.cooperative_yield`), exactly like the
        live-traffic server's cooperative mitigation.  Only this
        thread parks, so the caller's guest calls on the healthy shards
        never do.
        """
        journal = self.journal(node_id)
        if journal.done("mitigate"):
            return journal.completed["mitigate"]["run"]
        h = self.health[node_id]
        h.status = "mitigating"
        installed = (
            cooperative_yield(gate.checkpoint)
            if gate is not None else nullcontext()
        )
        with installed:
            run = mitigate_ladder(
                ctx, scenario, outcome, _make_reexec(ctx, scenario, detector),
                mclock or SimClock(), ReexecDelay(seed=self.seed * 13 + 5),
                solution=self.solution, inject_plan=inject_plan,
            )

        h.mitigations += 1
        h.attempts += run.attempts
        h.leaked_blocks += run.leaked_blocks
        h.crash_retries += run.ladder.get("crash_retries", 0)
        journal.complete("mitigate", run=run)
        h.status = "mitigating" if not run.recovered else "resyncing"
        return run

    # ------------------------------------------------------------------
    # phase 2b: rebuild (re-replication, the rung below the ladder)
    # ------------------------------------------------------------------
    def rebuild(self, node_id: int) -> bool:
        """When the ladder cannot repair the pool, re-replicate instead.

        The damaged pool is abandoned (:meth:`Cluster.rebuild_node`) and
        resync later re-bases the node from a live mirror — the cluster
        analogue of the single-node snapshot rung, except the "snapshot"
        is the mirrors and is always current.  No cluster op is lost;
        the node-local state the pool held outside the oplog is the
        fault's blast radius.  A no-op (journaled ``rebuilt=False``)
        when mitigation succeeded.
        """
        journal = self.journal(node_id)
        if journal.done("rebuild"):
            return bool(journal.completed["rebuild"]["rebuilt"])
        entry = journal.completed.get("mitigate")
        run = entry["run"] if entry is not None else None
        rebuilt = run is not None and not run.recovered
        if rebuilt:
            self.cluster.rebuild_node(node_id)
            self.health[node_id].status = "resyncing"
        journal.complete("rebuild", rebuilt=rebuilt)
        return rebuilt

    # ------------------------------------------------------------------
    # phase 3: cascade
    # ------------------------------------------------------------------
    def cascade(self, node_id: int, run: MitigationRun):
        """Damage assessment + promotion-aware causal cascade.

        Maps the ladder's reverted seqs to client ops.  Idempotent:
        re-entry after a crash returns the journaled result (ops already
        reverted stay reverted — reverts are pure functions of the log).
        """
        journal = self.journal(node_id)
        if journal.done("cascade"):
            info = journal.completed["cascade"]
            return info["discarded"], info["cascaded"], info["rounds"]
        discarded, cascaded, rounds = self.reactor.cascade_from(
            node_id, set(run.reverted_seqs)
        )
        # peers whose pools lost reverted state re-run local recovery
        touched = {
            nid
            for op in discarded + cascaded
            for nid in op.reverted_on
            if nid != node_id and not self.cluster.is_down(nid)
        }
        for nid in sorted(touched):
            peer = self.cluster.nodes[nid]
            peer.restart()
            peer.recover()
        self.health[node_id].discarded_ops += len(discarded)
        journal.complete(
            "cascade", discarded=discarded, cascaded=cascaded, rounds=rounds
        )
        return discarded, cascaded, rounds

    # ------------------------------------------------------------------
    # phase 4: resync + handoff
    # ------------------------------------------------------------------
    def resync(self, node_id: int, clock: Optional[SimClock] = None) -> HealReport:
        """Catch the healed node up, then hand it back as a replica.

        Two crash-retried steps around the ``cluster.resync`` /
        ``cluster.handoff`` sites:

        * catch-up — :meth:`Cluster.rebase_node` copies a live
          mirror's current state, which carries every discard the
          cascade applied while this node was down; the rebase
          reinstalls from scratch, so a mid-rebase crash retries
          cleanly;
        * handoff — demote (sticky) + mark up, in that order, so the
          node never fronts reads between the two flags, then compact
          the delta stream.
        """
        journal = self.journal(node_id)
        h = self.health[node_id]
        clock = clock or SimClock()
        report = HealReport(node_id=node_id)
        if not journal.done("resync"):
            h.status = "resyncing"

            def catchup() -> StepResult:
                faultinject.fire("cluster.resync")
                replayed, reverted = self.cluster.rebase_node(node_id)
                return StepResult(
                    recovered=True, notes=f"reverted={reverted} replayed={replayed}",
                    attempts=replayed,
                )
            res, retries = with_crash_retries(
                catchup, self.cluster.nodes[node_id].pool, clock
            )
            journal.complete(
                "resync", notes=res.notes, replayed=res.attempts,
                crash_retries=retries,
            )
            h.crash_retries += retries
            h.resync_lag = res.attempts
        report.resync_replayed = journal.completed["resync"]["replayed"]
        report.crash_retries += journal.completed["resync"]["crash_retries"]

        if not journal.done("handoff"):
            def handoff() -> StepResult:
                self.cluster.ring.demote(node_id)
                self.cluster.ring.mark_up(node_id)
                # fold the stream's tail now that every node is live and
                # aligned; a crash at the cluster.compact site leaves
                # the stream untruncated and the retry folds the same
                # tail (idempotent)
                folded = self.cluster.compact()
                faultinject.fire("cluster.handoff")
                return StepResult(recovered=True, notes=f"compacted={folded}")
            _, retries = with_crash_retries(
                handoff, self.cluster.nodes[node_id].pool, clock
            )
            journal.complete("handoff", crash_retries=retries)
            h.crash_retries += retries
        report.crash_retries += journal.completed["handoff"]["crash_retries"]
        h.status = "demoted"
        report.demoted = True
        report.phases = journal.phases_done()
        return report

    # ------------------------------------------------------------------
    # the whole protocol
    # ------------------------------------------------------------------
    def heal(
        self,
        node_id: int,
        ctx,
        trapped: bool = False,
        inject_plan=None,
        serve: Optional[Callable[[str], None]] = None,
    ) -> HealReport:
        """detect → confirm → promote → mitigate → rebuild → cascade →
        resync/handoff: the one cluster heal.

        Detection runs on the node through :func:`detect` (``trapped``:
        the caller's traffic already raised the trap); when nothing
        manifests the heal stops there — no verdict, no promotion, the
        journal untouched.  Otherwise the node's journal starts empty
        (a fault on an already-healed node runs every phase again),
        :func:`confirm_hard` restarts the node and watches the failure
        recur, the verdict is recorded, and the protocol runs whatever
        confirmation says.

        ``serve(phase)`` (if given) runs while the sick node is down:
        after ``"promote"``, at every park of the mitigation (phase
        ``"park"``: the ladder then runs through :func:`run_gated`), and
        after ``"mitigate"``, ``"rebuild"`` and ``"cascade"`` — never
        before promotion, where a wedged primary would still ship its
        diverged state.  ``report.phase_seconds`` times each phase, not
        the serving between phases.  ``inject_plan`` is armed from
        promotion on, so the ``cluster.*`` second-fault sites can fire.
        One :class:`SimClock` paces promote, mitigate and resync, and
        ``crash_retries`` sums all three.
        """
        report = HealReport(node_id=node_id)
        began = time.perf_counter()
        detector = make_detector(ctx)
        outcome = detect(ctx, detector, trapped)
        if outcome.ok:
            return report
        self._journals[node_id] = HealJournal()
        report.manifested = True
        report.signature = outcome.signature
        report.confirmed_hard = confirm_hard(ctx, detector, outcome)
        self.note_verdict(node_id)
        clock = SimClock()

        def lap(phase: str, down: bool = True) -> None:
            """Record ``phase``'s wall seconds; while the sick node is
            down, the caller serves before the next phase starts."""
            nonlocal began
            report.phase_seconds[phase] = time.perf_counter() - began
            if down and serve is not None:
                serve(phase)
            began = time.perf_counter()

        def mitigate(gate=None):
            return self.mitigate(
                node_id, ctx, ctx.scenario, outcome, detector,
                inject_plan=inject_plan, gate=gate, mclock=clock,
            )

        lap("detect", down=False)
        cm = (
            faultinject.activate(inject_plan)
            if inject_plan is not None else nullcontext()
        )
        with cm:
            report.crash_retries += self.promote(node_id, clock=clock)
            report.promoted = True
            lap("promote")
            run = (
                mitigate() if serve is None
                else run_gated(mitigate, lambda: serve("park"))
            )
            lap("mitigate")
            report.run = run
            report.crash_retries += run.ladder.get("crash_retries", 0)
            report.recovered = run.recovered
            report.recovered_by = run.ladder.get("recovered_by", "") or ""
            # the rung below the ladder: a failed ladder always rebuilds
            if self.rebuild(node_id):
                report.recovered = True
                report.recovered_by = "rebuild"
            lap("rebuild")
            discarded, cascaded, rounds = self.cascade(node_id, run)
            report.discarded_ops = discarded
            report.cascaded_ops = cascaded
            report.cascade_rounds = rounds
            lap("cascade")
            sub = self.resync(node_id, clock=clock)
            report.resync_replayed = sub.resync_replayed
            report.crash_retries += sub.crash_retries
            report.demoted = sub.demoted
            lap("resync", down=False)
        report.phases = self.journal(node_id).phases_done()
        return report

    # ------------------------------------------------------------------
    def health_table(self) -> List[Dict[str, object]]:
        return [self.health[i].to_json() for i in range(self.cluster.n_nodes)]
