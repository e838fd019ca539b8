"""Tests for the shard supervisor: promotion, crash-safe heal phases,
serving through a sick shard's mitigation, and health accounting."""

import threading
from types import SimpleNamespace

import pytest

from repro import faultinject
from repro.distributed.cluster import Cluster, ClusterClient
from repro.distributed.shardmgr import ShardManager
from repro.faultinject import InjectionPlan, InjectionSpec
from repro.faults.registry import scenario_by_id
from repro.harness.cluster_sweep import target_shard
from repro.harness.experiment import (
    ExperimentContext,
    MitigationRun,
    detect,
    make_detector,
)
from repro.reactor.server import WorkerGate

def _wedged_cluster(seed=0, n_nodes=3, replication=2, warm=40,
                    fid="f1", target=0):
    """A cluster with ``target`` wedged by ``fid`` (default: the
    memcached f1 refcount bug on node 0); the trigger has run, detection
    has not."""
    scenario = scenario_by_id(fid)
    cluster = Cluster(
        n_nodes=n_nodes, n_clients=2, adapter_cls=scenario.adapter_cls(),
        seed=seed, replication=replication,
    )
    a = ClusterClient(cluster, 0)
    for key in range(warm):
        a.insert(key, 500 + key)
    ctx = ExperimentContext(cluster.nodes[target], scenario, seed)
    # the node's logical truth is the cluster's per-node oracle; the
    # scenario's node-local trigger traffic maintains the same dict
    ctx.oracle = cluster.oracles[target]
    scenario.trigger(ctx)
    return cluster, ctx


@pytest.fixture(scope="module")
def healed():
    """One full trip through the promotion protocol, with a crash
    injected at the ``cluster.promote`` site and a serving window
    between promotion and mitigation.  Module-scoped: the assertions
    below are all post-heal reads."""
    cluster, ctx = _wedged_cluster()
    b = ClusterClient(cluster, 1)
    mgr = ShardManager(cluster, solution="arthas", seed=0)
    # keys whose pre-fault primary is node 0: written during the window,
    # they must fail over now and land back on node 0 via re-sync
    arc_keys = cluster.keys_for_node(0, 3, start=1000)
    plan = InjectionPlan([InjectionSpec("cluster.promote", 1, "crash")])
    window = SimpleNamespace(
        reads=[], writes=[], routed=[], down_during_window=False
    )

    def serve(phase):
        if phase != "promote":
            return
        window.down_during_window = cluster.is_down(0)
        for key in range(6):  # healthy-shard reads keep flowing
            window.reads.append(b.lookup(key))
        for key in arc_keys:  # the sick arc accepts writes via replicas
            rec = b.insert(key, 9000 + key)
            window.writes.append(rec)
            window.routed.append(rec.node)

    report = mgr.heal(0, ctx, inject_plan=plan, serve=serve)
    return SimpleNamespace(
        cluster=cluster, mgr=mgr, report=report, plan=plan,
        window=window, arc_keys=arc_keys,
    )


class TestHeal:
    def test_happy_path_recovers_and_demotes(self, healed):
        rep = healed.report
        assert rep.manifested and rep.confirmed_hard
        assert rep.signature is not None and rep.signature.kind == "hang"
        assert rep.promoted and rep.recovered and rep.demoted
        assert rep.recovered_by != ""
        assert rep.phases == [
            "promote", "mitigate", "rebuild", "cascade", "resync", "handoff"
        ]
        # mitigation succeeded, so the re-replication rung was a no-op
        assert not healed.mgr.journal(0).completed["rebuild"]["rebuilt"]

    def test_promote_crash_converged_on_retry(self, healed):
        # the injected second fault at cluster.promote was retried
        assert healed.plan.all_fired
        assert healed.report.crash_retries >= 1

    def test_serving_continued_while_down(self, healed):
        w = healed.window
        assert w.down_during_window
        # healthy-shard reads all answered during the window
        assert w.reads == [500 + k for k in range(6)]
        # the sick arc's writes failed over to live replicas
        assert all(node != 0 for node in w.routed)

    def test_resync_replays_missed_tail_onto_healed_node(self, healed):
        node0 = healed.cluster.nodes[0]
        replayed = [op for op in healed.window.writes if 0 in op.spans]
        assert replayed, "no window write was re-synced onto node 0"
        for op in replayed:
            assert node0.lookup(op.key) == op.value
        assert healed.report.resync_replayed >= len(replayed)

    def test_sticky_demotion_shapes_routing(self, healed):
        ring = healed.cluster.ring
        assert 0 in ring.demoted and not ring.is_down(0)
        for key in healed.arc_keys:
            assert healed.cluster.node_for(key) != 0
            # ...but the healed node is back on replica duty
            assert 0 in healed.cluster.replica_nodes_for(key)

    def test_health_scores(self, healed):
        table = healed.mgr.health_table()
        sick = table[0]
        assert sick["status"] == "demoted"
        assert sick["verdicts"] == 1 and sick["mitigations"] == 1
        assert 0 < sick["score"] < 100
        for row in table[1:]:
            assert row["status"] == "serving" and row["score"] == 100

    def test_journaled_phases_reenter_as_noops(self, healed):
        # a supervisor retrying after a crash must not redo work
        assert healed.mgr.promote(0) == 0
        again = healed.mgr.resync(0)
        assert again.resync_replayed == healed.report.resync_replayed
        journal = healed.mgr.journal(0)
        assert journal.phases_done() == list(journal.PHASES)


def test_heal_clones_one_checkpoint_log(cloned_logs):
    """The rebase copies one mirror's checkpoint log, once; the heal
    clones nothing else (the handoff's compaction copies no state)."""
    cluster, ctx = _wedged_cluster()
    report = ShardManager(cluster).heal(0, ctx)
    assert report.recovered and report.demoted
    assert len(cloned_logs) == 1
    # node 1: the lowest live node that acks the whole stream
    assert cloned_logs[0] is cluster.nodes[1].ckpt.log


def test_second_heal_of_a_healed_node_runs_every_phase_again():
    """A fault on a node that already healed starts a new journal: the
    second heal promotes, mitigates and re-bases the node again instead
    of replaying the first heal's journal entries."""
    cluster, ctx = _wedged_cluster()
    mgr = ShardManager(cluster)
    r1 = mgr.heal(0, ctx)
    assert r1.recovered and r1.demoted
    scenario = scenario_by_id("f1")
    ctx2 = ExperimentContext(cluster.nodes[0], scenario, 0)
    ctx2.oracle = cluster.oracles[0]
    scenario.trigger(ctx2)
    down = {}

    def serve(phase):
        down[phase] = cluster.is_down(0)

    r2 = mgr.heal(0, ctx2, serve=serve)
    assert r2.manifested and r2.promoted and r2.recovered and r2.demoted
    assert down["promote"]
    assert r2.run is not r1.run and r2.run.attempts >= 1
    assert mgr.health[0].mitigations == 2
    assert not cluster.is_down(0)
    assert detect(ctx2, make_detector(ctx2)).ok


def test_heal_stops_when_nothing_manifests():
    """f18's trigger does not survive the sharded keyspace: detection
    finds no failure, so the heal records no verdict, promotes nothing
    and leaves the journal empty."""
    target = target_shard("f18")
    cluster, ctx = _wedged_cluster(fid="f18", target=target)
    mgr = ShardManager(cluster)
    report = mgr.heal(target, ctx)
    assert not report.manifested and not report.confirmed_hard
    assert not report.promoted and report.run is None
    assert not cluster.is_down(target)
    assert mgr.journal(target).phases_done() == []
    assert mgr.health[target].verdicts == 0
    assert report.phase_seconds == {}


class TestServingHeal:
    def test_heal_serves_at_every_park_while_the_node_is_down(self, gates):
        """With ``serve``, the heal runs the ladder through the gated
        turnstile: the caller serves at every park, and after each phase
        that leaves the sick node down, and never before promotion."""
        cluster, ctx = _wedged_cluster()
        b = ClusterClient(cluster, 1)
        phases, down, reads = [], [], []

        def serve(phase):
            phases.append(phase)
            if phase == "park":
                down.append(cluster.is_down(0))
                reads.extend(b.lookup(key) for key in range(3))

        report = ShardManager(cluster).heal(0, ctx, serve=serve)
        assert report.recovered and report.demoted
        parks = phases.count("park")
        assert parks >= 3
        assert phases == (
            ["promote"] + ["park"] * parks + ["mitigate", "rebuild", "cascade"]
        )
        assert all(down) and len(down) == parks
        # healthy-shard reads answered at every park
        assert reads == [500, 501, 502] * parks
        assert len(gates) == 1
        assert set(report.phase_seconds) == {
            "detect", "promote", "mitigate", "rebuild", "cascade", "resync"
        }
        assert all(s >= 0 for s in report.phase_seconds.values())

    def test_serve_error_at_a_park_propagates_and_leaves_no_worker(
        self, gates
    ):
        cluster, ctx = _wedged_cluster()
        parks = []

        def serve(phase):
            if phase == "park":
                parks.append(phase)
                if len(parks) == 2:
                    raise RuntimeError("serving failed")

        box = {}

        def heal():
            try:
                ShardManager(cluster).heal(0, ctx, serve=serve)
            except Exception as exc:  # noqa: BLE001 — handed to the test
                box["error"] = exc

        thread = threading.Thread(target=heal, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "the heal hung"
        error = box.get("error")
        assert isinstance(error, RuntimeError) and "serving failed" in str(error)
        assert len(parks) == 2 and len(gates) == 1
        assert not [t for t in threading.enumerate() if t.name == "mitigate"]


def _promoted_cluster_without_fault(seed=3):
    """Promotion + serving window, with the mitigate/cascade phases
    journaled as already-done — isolates the resync/handoff machinery
    (and its crash sites) from the expensive ladder."""
    cluster = Cluster(n_nodes=3, n_clients=2, seed=seed, replication=2)
    a = ClusterClient(cluster, 0)
    for key in range(30):
        a.insert(key, 500 + key)
    mgr = ShardManager(cluster, seed=seed)
    arc_keys = cluster.keys_for_node(0, 4, start=1000)
    mgr.promote(0)
    writes = [a.insert(k, 7000 + k) for k in arc_keys]
    journal = mgr.journal(0)
    journal.complete(
        "mitigate", run=MitigationRun(solution="arthas", recovered=True)
    )
    journal.complete("cascade", discarded=[], cascaded=[], rounds=0)
    return cluster, mgr, writes


class TestCrashAtHealSites:
    @pytest.mark.parametrize("occurrence", [1, 2])
    def test_resync_crash_converges(self, occurrence):
        cluster, mgr, writes = _promoted_cluster_without_fault()
        plan = InjectionPlan(
            [InjectionSpec("cluster.resync", occurrence, "crash")]
        )
        with faultinject.activate(plan):
            rep = mgr.resync(0)
        assert plan.all_fired and rep.crash_retries >= 1
        assert rep.demoted and not cluster.is_down(0)
        # the replay converged: every window write the healed node now
        # participates in is present on its pool, exactly once
        node0 = cluster.nodes[0]
        replayed = [op for op in writes if 0 in op.spans]
        assert replayed
        for op in replayed:
            assert node0.lookup(op.key) == op.value

    def test_handoff_crash_converges(self):
        cluster, mgr, writes = _promoted_cluster_without_fault(seed=4)
        plan = InjectionPlan([InjectionSpec("cluster.handoff", 1, "crash")])
        with faultinject.activate(plan):
            rep = mgr.resync(0)
        assert plan.all_fired and rep.crash_retries >= 1
        assert rep.demoted
        assert 0 in cluster.ring.demoted and not cluster.is_down(0)

    def test_promote_crash_converges(self):
        cluster = Cluster(n_nodes=2, n_clients=1, seed=5)
        ClusterClient(cluster, 0).insert(0, 1)
        mgr = ShardManager(cluster)
        plan = InjectionPlan([InjectionSpec("cluster.promote", 1, "crash")])
        with faultinject.activate(plan):
            retries = mgr.promote(0)
        assert plan.all_fired and retries >= 1
        assert cluster.is_down(0)
        assert mgr.journal(0).done("promote")


class TestRebuild:
    def test_failed_ladder_rebuilds_from_replicas(self):
        """When mitigation cannot repair the pool, the supervisor
        abandons it and resync re-bases the fresh pool from a live
        mirror, which holds every oplog op."""
        cluster = Cluster(n_nodes=3, n_clients=2, seed=8, replication=2)
        a = ClusterClient(cluster, 0)
        for key in range(30):
            a.insert(key, 500 + key)
        mgr = ShardManager(cluster, seed=8)
        mgr.promote(0)
        old_pool = cluster.nodes[0].pool
        journal = mgr.journal(0)
        journal.complete(
            "mitigate", run=MitigationRun(solution="arthas", recovered=False)
        )
        assert mgr.rebuild(0) is True
        assert cluster.nodes[0].pool is not old_pool
        journal.complete("cascade", discarded=[], cascaded=[], rounds=0)
        rep = mgr.resync(0)
        # the fresh pool re-learned every oplog op
        assert rep.resync_replayed == len(cluster.oplog) == 30
        node0 = cluster.nodes[0]
        for op in cluster.oplog:
            assert 0 in op.spans
            assert node0.lookup(op.key) == op.value
        assert rep.demoted and not cluster.is_down(0)

    def test_rebuild_is_noop_after_successful_mitigation(self):
        cluster = Cluster(n_nodes=3, n_clients=2, seed=9, replication=2)
        ClusterClient(cluster, 0).insert(0, 1)
        mgr = ShardManager(cluster, seed=9)
        mgr.promote(0)
        pool = cluster.nodes[0].pool
        mgr.journal(0).complete(
            "mitigate", run=MitigationRun(solution="arthas", recovered=True)
        )
        assert mgr.rebuild(0) is False
        assert cluster.nodes[0].pool is pool
        # journaled: re-entry gives the same answer without a second look
        assert mgr.rebuild(0) is False


class TestServeDuringMitigation:
    def test_reads_interleave_with_mitigation_chunks(self):
        """The ISSUE's serve-during-mitigation check: a serving thread
        answers healthy-shard and promoted-primary reads between the
        sick node's mitigation chunks (WorkerGate turnstile)."""
        cluster, ctx = _wedged_cluster(seed=1)
        detector = make_detector(ctx)
        outcome = detect(ctx, detector)
        assert not outcome.ok and outcome.fault is not None
        b = ClusterClient(cluster, 1)
        mgr = ShardManager(cluster, seed=1)
        mgr.promote(0)
        gate = WorkerGate()
        result = {}

        def work():
            result["run"] = mgr.mitigate(
                0, ctx, ctx.scenario, outcome, detector, gate=gate
            )

        worker = threading.Thread(target=work)
        worker.start()
        served = []
        while worker.is_alive():
            if not gate.wait_parked(timeout=0.5):
                continue
            # mid-mitigation serving turn: every shard still answers
            for key in range(3):
                served.append(b.lookup(key))
            gate.resume()
        gate.close()
        worker.join()
        assert result["run"].recovered
        assert gate.checkpoints >= 3
        assert len(served) >= 9
        assert all(v == 500 + (i % 3) for i, v in enumerate(served))


class TestTwoNodeSequentialHeal:
    def test_second_shard_heals_while_first_is_demoted(self):
        """A second hard fault after a completed heal: the demoted
        first node keeps replica duty while the second runs the full
        protocol; the cluster ends with both demoted and serving."""
        cluster, mgr, _ = (*_promoted_cluster_without_fault(seed=6),)
        mgr.resync(0)
        assert 0 in cluster.ring.demoted
        # now node 1 goes down (journal-only heal: the machinery under
        # test is ring state + resync under an existing demotion)
        probe = cluster.keys_for_node(1, 2, start=2000)
        mgr.promote(1)
        a = ClusterClient(cluster, 0)
        recs = [a.insert(k, 4000 + k) for k in probe]
        assert all(rec.node != 1 for rec in recs)
        journal = mgr.journal(1)
        journal.complete(
            "mitigate", run=MitigationRun(solution="arthas", recovered=True)
        )
        journal.complete("cascade", discarded=[], cascaded=[], rounds=0)
        rep = mgr.resync(1)
        assert rep.demoted
        assert cluster.ring.demoted == {0, 1}
        assert not cluster.ring.down
        # with every original candidate demoted the ring still serves
        for k in probe:
            assert a.lookup(k) == 4000 + k
