"""Delta-replication tests: physical shipping vs re-execution.

Delta shipping must be *observationally identical* to the logical
re-execution oracle (``tests.oracles.ReexecCluster``) — byte-identical
per-node pool digests, equal structural digests, equal oracles — while
never re-executing the guest on a mirror.  These tests pin that
equivalence across guest systems, group-commit batch sizes, injected
crashes at the two replication sites (``cluster.ship_delta``,
``cluster.compact``), a torn op on the primary, and the compaction
round-trip through ``rebuild_node`` + ``rebase_node``, whose copy of the
mirror must share no object with it.
"""

import gc
import random
import tracemalloc

import pytest

from repro import faultinject
from repro.distributed.cluster import Cluster, ClusterClient
from repro.errors import InjectedCrash
from repro.faultinject import InjectionPlan, InjectionSpec
from repro.faults.registry import scenario_by_id
from repro.harness.supervisor import pool_digest
from tests.oracles import ReexecCluster
from tests.oracles.checkpoint import structural_digest

#: one fault id per guest system — the scenario is never triggered,
#: only its adapter class is borrowed for a fault-free workload
SYSTEM_FIDS = ("f1", "f9", "f20", "f21", "f23")

N_NODES = 3
N_OPS = 90


def _run_workload(
    cluster_cls,
    adapter_cls,
    n_ops: int = N_OPS,
    replication: int = N_NODES,
    batch: int = 8,
    seed: int = 5,
    drain: bool = True,
) -> Cluster:
    """One deterministic mixed workload through a fresh cluster.

    ``drain=False`` skips the closing full round; with ``batch`` above
    ``n_ops`` no round runs at all and the whole stream stays queued."""
    cluster = cluster_cls(
        n_nodes=N_NODES, n_clients=2, adapter_cls=adapter_cls, seed=seed,
        replication=replication, replication_batch=batch,
    )
    clients = [ClusterClient(cluster, i) for i in range(2)]
    rng = random.Random(seed)
    keyspace = max(16, n_ops // 2)
    for i in range(n_ops):
        _mixed_op(clients, rng, i, keyspace)
    if drain:
        cluster.drain()
    return cluster


def _mixed_op(clients, rng: random.Random, i: int, keyspace: int) -> None:
    """One op of the mixed workload: insert, read, derived insert or
    delete of a random key."""
    key = rng.randrange(keyspace)
    roll = rng.random()
    if roll < 0.55:
        clients[i % 2].insert(key, 700 + i)
    elif roll < 0.75:
        clients[i % 2].lookup(key)
    elif roll < 0.90:
        clients[1].derived_insert(key, key + keyspace)
    else:
        clients[0].delete(key)


def _digests(cluster: Cluster):
    """Per-node (pool digest, structural digest) after a full drain."""
    cluster.drain()
    return [
        (pool_digest(node.pool, node.allocator),
         structural_digest(node.ckpt.log))
        for node in cluster.nodes
    ]


class TestEngineEquivalence:
    @pytest.mark.parametrize("fid", SYSTEM_FIDS)
    def test_delta_matches_reexec_per_node(self, fid):
        adapter_cls = scenario_by_id(fid).adapter_cls()
        reexec = _run_workload(ReexecCluster, adapter_cls)
        delta = _run_workload(Cluster, adapter_cls)
        assert _digests(delta) == _digests(reexec)
        assert delta.oracles == reexec.oracles

    def test_spans_cover_all_mirrors(self):
        adapter_cls = scenario_by_id("f1").adapter_cls()
        delta = _run_workload(Cluster, adapter_cls)
        mutations = [op for op in delta.oplog]
        assert mutations
        for op in mutations:
            assert set(op.spans) == set(range(N_NODES))

    def test_batched_equals_unbatched(self):
        adapter_cls = scenario_by_id("f1").adapter_cls()
        batched = _run_workload(Cluster, adapter_cls, batch=8)
        unbatched = _run_workload(Cluster, adapter_cls, batch=1)
        assert _digests(batched) == _digests(unbatched)
        assert batched.oracles == unbatched.oracles


class TestCrashAtShipDelta:
    def test_crash_then_retry_converges(self):
        adapter_cls = scenario_by_id("f1").adapter_cls()
        control = _run_workload(Cluster, adapter_cls, batch=1)

        cluster = Cluster(
            n_nodes=N_NODES, n_clients=2, adapter_cls=adapter_cls, seed=5,
            replication=N_NODES, replication_batch=1,
        )
        clients = [ClusterClient(cluster, i) for i in range(2)]
        rng = random.Random(5)
        keyspace = max(16, N_OPS // 2)
        plan = InjectionPlan([InjectionSpec("cluster.ship_delta", 4)])
        crashes = 0
        with faultinject.activate(plan):
            for i in range(N_OPS):
                key = rng.randrange(keyspace)
                roll = rng.random()
                try:
                    if roll < 0.55:
                        clients[i % 2].insert(key, 700 + i)
                    elif roll < 0.75:
                        clients[i % 2].lookup(key)
                    elif roll < 0.90:
                        clients[1].derived_insert(key, key + keyspace)
                    else:
                        clients[0].delete(key)
                except InjectedCrash:
                    # the crashed shipping round left the mirror's
                    # pointer unadvanced; a retried drain re-applies
                    # idempotently and the client op is re-issued
                    crashes += 1
                    cluster.drain()
                    if roll < 0.55:
                        clients[i % 2].insert(key, 700 + i)
                    elif roll < 0.75:
                        clients[i % 2].lookup(key)
                    elif roll < 0.90:
                        clients[1].derived_insert(key, key + keyspace)
                    else:
                        clients[0].delete(key)
            cluster.drain()
        assert plan.all_fired
        assert crashes == 1
        assert _digests(cluster) == _digests(control)
        assert cluster.oracles == control.oracles

    def test_pointers_unadvanced_by_crashed_round(self):
        adapter_cls = scenario_by_id("f1").adapter_cls()
        cluster = Cluster(
            n_nodes=N_NODES, n_clients=1, adapter_cls=adapter_cls, seed=5,
            replication=N_NODES,
            replication_batch=64,  # nothing drains until we say so
        )
        client = ClusterClient(cluster, 0)
        for key in range(6):
            client.insert(key, 900 + key)
        lagging = [
            nid for nid in range(N_NODES)
            if cluster._applied[nid] < cluster._log_pos
        ]
        assert lagging
        victim = lagging[0]
        before = cluster._applied[victim]
        plan = InjectionPlan([InjectionSpec("cluster.ship_delta", 1)])
        with faultinject.activate(plan):
            with pytest.raises(InjectedCrash):
                cluster.drain(victim)
        assert cluster._applied[victim] == before
        # the clean retry applies the same deltas exactly once
        applied = cluster.drain(victim)
        assert applied == cluster._log_pos - before
        assert cluster._applied[victim] == cluster._log_pos


class TestCrashAtCompact:
    def test_crash_then_retry_converges(self):
        adapter_cls = scenario_by_id("f1").adapter_cls()
        # no full round runs, so the whole stream is a pre-compaction tail
        cluster = _run_workload(
            Cluster, adapter_cls, batch=N_OPS + 1, drain=False
        )
        control = _run_workload(Cluster, adapter_cls)
        n_deltas = len(cluster._delta_log)
        assert n_deltas == cluster._log_pos > 0

        plan = InjectionPlan([InjectionSpec("cluster.compact", 1)])
        with faultinject.activate(plan):
            with pytest.raises(InjectedCrash):
                cluster.compact()
        # the crash hit after the drain round but before truncation:
        # nothing moved, and the retry folds the same prefix
        assert cluster._horizon == 0
        assert len(cluster._delta_log) == n_deltas
        folded = cluster.compact()
        assert folded == n_deltas
        assert cluster._horizon == cluster._log_pos
        assert not cluster._delta_log
        assert _digests(cluster) == _digests(control)

    def test_compact_is_noop_under_reexec(self):
        # the oracle must really re-execute: were it shipping deltas, the
        # equivalence above would compare delta shipping with itself
        adapter_cls = scenario_by_id("f1").adapter_cls()
        cluster = _run_workload(ReexecCluster, adapter_cls)
        assert cluster._log_pos == 0 and not cluster._delta_log
        assert cluster.compact() == 0


class TestCompactionRoundTrip:
    def test_rebuild_then_rebase_after_compaction(self):
        adapter_cls = scenario_by_id("f1").adapter_cls()
        cluster = _run_workload(
            Cluster, adapter_cls, batch=N_OPS + 1, drain=False
        )
        queued = len(cluster._delta_log)
        folded = cluster.compact()
        assert folded == queued > 0
        n_ops = len(cluster.oplog)

        cluster.rebuild_node(1)
        assert 1 in cluster._needs_rebase
        credited, reverted = cluster.rebase_node(1)
        # copied at the head of the stream: no tail is left to drain
        assert cluster._applied[1] == cluster._log_pos
        assert cluster.drain(1) == 0
        assert credited == n_ops
        assert reverted == 0
        assert 1 not in cluster._needs_rebase
        digests = _digests(cluster)
        assert digests[1] == digests[0]
        assert cluster.oracles[1] == cluster.oracles[0]

    def test_rebase_installs_tail_past_horizon(self):
        adapter_cls = scenario_by_id("f1").adapter_cls()
        cluster = _run_workload(Cluster, adapter_cls, n_ops=40, batch=64)
        cluster.compact()
        # grow a post-compaction tail (no full round truncates it), then
        # heal: the rebase drains the tail into the mirror it copies
        client = ClusterClient(cluster, 0)
        for key in range(200, 212):
            client.insert(key, 30 + key)
        assert len(cluster._delta_log) == 12
        cluster.rebuild_node(2)
        credited, _ = cluster.rebase_node(2)
        assert not cluster._delta_log
        assert cluster._applied[2] == cluster._log_pos
        assert credited == len(cluster.oplog)
        digests = _digests(cluster)
        assert digests[2] == digests[0]


class TestRebaseCopiesMirror:
    def test_rebased_node_shares_no_state_with_its_mirror(self):
        """A rebase copies the mirror's state: an aliased pool image,
        allocator table, log or trace index would pass every digest
        equality above, since both sides would read the same object."""
        adapter_cls = scenario_by_id("f1").adapter_cls()
        cluster = _run_workload(Cluster, adapter_cls, n_ops=40)
        cluster.rebuild_node(1)
        cluster.rebase_node(1)
        # node 0 is the lowest live node that acks the whole stream
        source, target = cluster.nodes[0], cluster.nodes[1]
        assert target.ckpt.log is not source.ckpt.log
        assert target.pool._durable is not source.pool._durable
        for name in ("_free", "_allocations", "_sites"):
            assert (getattr(target.allocator, name)
                    is not getattr(source.allocator, name))
        src_index = source.trace._addrs_by_guid
        dst_index = target.trace._addrs_by_guid
        assert dst_index is not src_index
        shared = set(src_index) & set(dst_index)
        assert shared
        assert all(dst_index[g] is not src_index[g] for g in shared)

        def state(node):
            return (pool_digest(node.pool, node.allocator),
                    structural_digest(node.ckpt.log))

        copied = state(target)
        assert copied == state(source)
        # mutate the mirror: an allocation (allocator table plus its
        # checkpoint record), a durable write, a logged update and a
        # trace pair
        addr = source.allocator.zalloc(4, site="alias-probe")
        source.pool.durable_write(addr, 4242)
        source.ckpt.log.record_update(addr, 1, [4242])
        source.trace.extend([("alias-probe", addr)])
        assert state(source) != copied
        assert state(target) == copied
        assert target.trace.addresses_for_guid("alias-probe") == set()


class TestBoundedStream:
    def test_delta_log_holds_at_most_one_round(self):
        cluster = Cluster(n_nodes=3, n_clients=2, seed=5, replication=2)
        clients = [ClusterClient(cluster, i) for i in range(2)]
        rng = random.Random(11)
        for i in range(240):
            _mixed_op(clients, rng, i, keyspace=64)
            assert len(cluster._delta_log) < cluster.replication_batch
        assert cluster._log_pos > 100
        cluster.drain()
        assert len(cluster._delta_log) == 0
        assert cluster._horizon == cluster._log_pos
        # truncation costs no node any state: the same stream with no
        # round before the last leaves every node byte-identical
        control = Cluster(
            n_nodes=3, n_clients=2, seed=5, replication=2,
            replication_batch=1000,
        )
        control_clients = [ClusterClient(control, i) for i in range(2)]
        rng = random.Random(11)
        for i in range(240):
            _mixed_op(control_clients, rng, i, keyspace=64)
        assert len(control._delta_log) == control._log_pos
        assert _digests(cluster) == _digests(control)
        assert cluster.oracles == control.oracles

    def test_cluster_retains_at_most_3000_bytes_per_op(self):
        """The oplog keeps array slots per op, not a record object with
        a spans dict, a clock tuple and a set (about 4,260 B per op
        retained with those, about 2,800 B without)."""
        n_ops = 3000
        tracemalloc.start()
        try:
            cluster = Cluster(n_nodes=3, n_clients=2, seed=3, replication=2)
            clients = [ClusterClient(cluster, i) for i in range(2)]
            for key in range(300):
                clients[key % 2].insert(key, 1000 + key)
            cluster.drain()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            rng = random.Random(7)
            for i in range(n_ops):
                key = rng.randrange(300)
                if rng.random() < 0.5:
                    clients[i % 2].insert(key, 5000 + i)
                else:
                    clients[i % 2].delete(key)
            cluster.drain()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cluster.oplog) == 300 + n_ops
        assert retained / n_ops <= 3000

    def test_down_node_is_flagged_then_rebased_from_a_fresh_base(
        self, cloned_logs
    ):
        cluster = Cluster(n_nodes=3, n_clients=2, seed=5, replication=2)
        clients = [ClusterClient(cluster, i) for i in range(2)]
        rng = random.Random(3)
        for i in range(30):
            _mixed_op(clients, rng, i, keyspace=48)
        cluster.compact()
        down = 1
        cluster.ring.mark_down(down)
        pos_down = cluster._log_pos
        # writes only, so each op enqueues one delta: >= 3 full rounds
        n_writes = 3 * cluster.replication_batch + 5
        for i in range(30, 30 + n_writes):
            clients[i % 2].insert(rng.randrange(48), 800 + i)
        assert cluster._log_pos == pos_down + n_writes
        assert cluster._horizon >= pos_down + 3 * cluster.replication_batch
        assert down in cluster._needs_rebase
        assert cluster._applied[down] < cluster._horizon
        assert cluster.drain(down) == 0  # down: nothing to do
        cluster.ring.mark_up(down)
        assert cluster.drain(down) == 0  # awaiting rebase: never raises
        cluster.drain()
        # the source is the lowest live node that acks the whole stream
        source = 0
        assert not cluster.is_down(source)
        assert source not in cluster._needs_rebase
        assert cluster._applied[source] == cluster._log_pos
        credited, reverted = cluster.rebase_node(down)
        # the one clone of the test (compaction copies nothing)
        assert len(cloned_logs) == 1
        assert cloned_logs[0] is cluster.nodes[source].ckpt.log
        assert credited == len(cluster.oplog)
        assert reverted == 0
        assert down not in cluster._needs_rebase
        assert cluster._applied[down] == cluster._log_pos
        assert source != down
        assert _digests(cluster)[down] == _digests(cluster)[source]
        assert cluster.oracles[down] == cluster.oracles[source]
        # back on the stream: it takes the next rounds like its source
        # (writes only — a memcached read touches its own node's pool)
        cluster.ring.demote(down)
        for j in range(2 * cluster.replication_batch + 3):
            key = rng.randrange(48)
            if j % 3 == 2:
                clients[0].delete(key)
            else:
                clients[j % 2].insert(key, 900 + j)
        assert not cluster._needs_rebase
        assert _digests(cluster)[down] == _digests(cluster)[source]
        assert cluster.oracles[down] == cluster.oracles[source]


class TestTornApplyAtomicity:
    def test_partial_failure_still_logs_applied_spans(self):
        """An op that tears mid-apply on its primary left durable
        damage there: it is still logged with the primary's partial
        span and shipped, so assessment finds it and mirrors align."""
        adapter_cls = scenario_by_id("f1").adapter_cls()
        cluster = Cluster(
            n_nodes=N_NODES, n_clients=1, adapter_cls=adapter_cls, seed=5,
            replication=N_NODES, replication_batch=1,
        )
        client = ClusterClient(cluster, 0)
        client.insert(1, 11)
        oplog_before = len(cluster.oplog)

        primary = cluster.nodes[cluster.node_for(2)]
        original = primary.insert

        def torn(key, value):
            original(key, value)  # the write lands, then the op dies
            raise RuntimeError("primary apply torn")

        primary.insert = torn
        try:
            with pytest.raises(RuntimeError):
                client.insert(2, 22)
        finally:
            primary.insert = original
        assert len(cluster.oplog) == oplog_before + 1
        op = cluster.oplog[-1]
        assert op.key == 2 and op.node == cluster.node_for(2)
        first, last = op.spans[op.node]
        assert first <= last
        assert _digests(cluster) == [_digests(cluster)[0]] * N_NODES
        assert set(op.spans) == set(range(N_NODES))
