"""Tests for the distributed recovery extension (paper Section 7)."""

import time

import pytest

from repro.distributed.cluster import (
    Cluster,
    ClusterClient,
    ShardUnavailable,
    vc_leq,
    vc_less,
    vc_merge,
)
from repro.distributed.recovery import DistributedReactor
from repro.harness.supervisor import pool_digest
from repro.systems.common import ABSENT
from tests.oracles import PerNodeRevertReactor, orphans_of

class TestVectorClocks:
    def test_ordering(self):
        assert vc_leq((1, 2), (1, 2))
        assert vc_less((1, 2), (2, 2))
        assert not vc_less((1, 2), (1, 2))
        assert not vc_less((2, 1), (1, 2))  # concurrent

    def test_merge(self):
        assert vc_merge((1, 5), (3, 2)) == (3, 5)

    def test_dimension_mismatch_raises_instead_of_truncating(self):
        # zip() used to drop the extra components, so a 3-dim clock
        # could compare "leq" a 2-dim one and merges lost history
        with pytest.raises(ValueError, match="dimension mismatch"):
            vc_leq((1, 2, 3), (1, 2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            vc_less((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            vc_merge((1,), (1, 2))


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _key_avoiding(cluster, primary, avoid_nodes, start=0):
    """A key whose whole replica set avoids ``avoid_nodes``."""
    key = start
    while True:
        nodes = cluster.replica_nodes_for(key)
        if nodes and nodes[0] == primary and not (set(nodes) & set(avoid_nodes)):
            return key
        key += 1
        assert key < start + 2_000_000


class TestCluster:
    def test_routing_and_lookup(self):
        cluster = Cluster(n_nodes=3)
        client = ClusterClient(cluster, 0)
        for key in range(24):
            client.insert(key, 100 + key)
        assert all(client.lookup(k) == 100 + k for k in range(24))
        # the ring spreads keys over all nodes
        assert {cluster.node_for(k) for k in range(24)} == {0, 1, 2}

    def test_oplog_records_sequence_spans(self):
        cluster = Cluster(n_nodes=2)
        client = ClusterClient(cluster, 0)
        log = cluster.nodes[cluster.node_for(4)].ckpt.log
        before = log.max_seq()
        rec = client.insert(4, 7)
        first, last = rec.spans[rec.node]
        assert rec.node == cluster.node_for(4)
        assert first == before + 1 and first <= last
        assert log.max_seq() >= last
        # the primary's span is recorded when the op executes...
        assert set(rec.spans) == {rec.node}
        # ...and every mirror's once its group-commit round drains
        cluster.drain()
        assert set(rec.spans) == set(range(cluster.n_nodes))
        assert rec.spans[rec.node] == (first, last)

    def test_replicas_hold_the_data(self):
        cluster = Cluster(n_nodes=3, replication=2)
        client = ClusterClient(cluster, 0)
        rec = client.insert(17, 1717)
        for nid in rec.spans:
            assert cluster.nodes[nid].lookup(17) == 1717

    def test_vector_clocks_capture_causality(self):
        # five nodes so two keys can have fully disjoint replica sets
        cluster = Cluster(n_nodes=5, n_clients=2)
        a = ClusterClient(cluster, 0)
        b = ClusterClient(cluster, 1)
        k1 = _key_avoiding(cluster, 0, [])
        set1 = cluster.replica_nodes_for(k1)
        k2 = _key_avoiding(cluster, set1[1], [])  # touches a shared node
        outside = [n for n in range(5) if n not in set1]
        k3 = _key_avoiding(cluster, outside[0], set1)
        r1 = a.insert(k1, 1)     # client 0
        r2 = a.insert(k2, 2)     # client 0 again: after r1 via the client
        r3 = b.insert(k3, 3)     # client 1, disjoint replica set: independent
        assert vc_less(r1.vc, r2.vc)
        assert not vc_less(r1.vc, r3.vc)

    def test_replica_stamping_is_one_way(self):
        # an op on primary P replicated to R must not serialize a later
        # op whose primary is elsewhere — but a later op *primaried* on
        # R must inherit it (reads after promotion stay causal)
        cluster = Cluster(n_nodes=5, n_clients=2)
        a = ClusterClient(cluster, 0)
        b = ClusterClient(cluster, 1)
        k1 = _key_avoiding(cluster, 0, [])
        replica = cluster.replica_nodes_for(k1)[1]
        r1 = a.insert(k1, 10)
        k_on_replica = _key_avoiding(cluster, replica, [])
        r2 = b.insert(k_on_replica, 20)
        assert vc_less(r1.vc, r2.vc)  # replica stored r1, so its events follow

    def test_read_creates_causal_edge(self):
        cluster = Cluster(n_nodes=2, n_clients=2)
        a = ClusterClient(cluster, 0)
        b = ClusterClient(cluster, 1)
        r1 = a.insert(0, 41)
        b.lookup(0)              # b observes the primary's state
        r2 = b.insert(1, 42)     # now causally after r1
        assert vc_less(r1.vc, r2.vc)

    def test_ops_overlapping_seqs_intersects_spans(self):
        cluster = Cluster(n_nodes=1)
        client = ClusterClient(cluster, 0)
        recs = [client.insert(k, 100 + k) for k in range(4)]
        spans = [r.spans[r.node] for r in recs]
        # exactly the middle two ops: every seq of their spans
        target = set(range(spans[1][0], spans[2][1] + 1))
        hit = cluster.ops_overlapping_seqs(0, target)
        assert [op.op_id for op in hit] == [recs[1].op_id, recs[2].op_id]
        # a single boundary seq still finds its op
        assert cluster.ops_overlapping_seqs(0, {spans[3][1]}) == [recs[3]]
        assert cluster.ops_overlapping_seqs(0, set()) == []
        # seqs beyond any span match nothing
        assert cluster.ops_overlapping_seqs(0, {spans[3][1] + 1000}) == []

    def test_ops_overlapping_seqs_skips_empty_spans(self):
        cluster = Cluster(n_nodes=1)
        client = ClusterClient(cluster, 0)
        rec = client.insert(0, 1)
        # an operation that produced no checkpoint records: its span is
        # empty (first > last) and must never be discarded
        empty = client.delete(999)
        first, last = empty.spans[empty.node]
        assert first > last
        every_seq = set(range(1, cluster.nodes[0].ckpt.log.max_seq() + 1))
        hit = cluster.ops_overlapping_seqs(0, every_seq)
        assert rec in hit and empty not in hit

    def test_delete_records_value_none(self):
        cluster = Cluster(n_nodes=1)
        client = ClusterClient(cluster, 0)
        client.insert(0, 0)          # a real stored zero
        rec = client.delete(0)
        assert rec.kind == "delete" and rec.value is None

    def test_absent_sentinel_is_not_storable(self):
        cluster = Cluster(n_nodes=1)
        client = ClusterClient(cluster, 0)
        with pytest.raises(ValueError, match="ABSENT"):
            client.insert(5, ABSENT)
        # a genuinely stored -1 can therefore never exist, so the miss
        # protocol stays unambiguous; values near it are fine
        client.insert(5, -2)
        assert client.lookup(5) == -2
        assert client.lookup(12345) == ABSENT

    def test_word_past_the_oplog_columns_is_refused_before_the_guest_runs(
        self,
    ):
        # the primary executes before the op is logged, so a key or
        # value the 64-bit columns cannot hold must be refused up front:
        # raising at log time would leave the op applied but unlogged
        cluster = Cluster(n_nodes=3, replication=2)
        client = ClusterClient(cluster, 0)
        for key in range(12):
            client.insert(key, key)
        cluster.drain()
        n_ops = len(cluster.oplog)
        digests = [pool_digest(n.pool, n.allocator) for n in cluster.nodes]
        for bad in (1 << 63, -(1 << 63) - 1, 2.5):
            with pytest.raises(ValueError, match="64-bit"):
                client.insert(3, bad)
            with pytest.raises(ValueError, match="64-bit"):
                client.insert(bad, 3)
            with pytest.raises(ValueError, match="64-bit"):
                client.delete(bad)
        cluster.drain()
        assert len(cluster.oplog) == n_ops
        assert [
            pool_digest(n.pool, n.allocator) for n in cluster.nodes
        ] == digests
        # the extremes the columns hold are stored and read back
        rec = client.insert((1 << 63) - 1, -(1 << 63))
        assert (rec.key, rec.value) == ((1 << 63) - 1, -(1 << 63))

    def test_derived_insert(self):
        cluster = Cluster(n_nodes=2)
        client = ClusterClient(cluster, 0)
        r1 = client.insert(0, 10)
        r2 = client.derived_insert(0, 1)
        assert r2 is not None
        assert client.lookup(1) == 11
        assert vc_less(r1.vc, r2.vc)
        assert client.derived_insert(99, 3) is None  # missing source

    def test_shard_unavailable_when_chain_down(self):
        cluster = Cluster(n_nodes=2, replication=2)
        client = ClusterClient(cluster, 0)
        client.insert(3, 33)
        cluster.ring.mark_down(0)
        cluster.ring.mark_down(1)
        with pytest.raises(ShardUnavailable):
            client.lookup(3)
        with pytest.raises(ShardUnavailable):
            client.insert(4, 44)


def _poisoned_cluster():
    """A discarded op on node 0 with cross-node causal dependents.

    replication=1 keeps routing replica sets disjoint on three nodes, so
    the seed's causality structure (deps cascade, independents survive)
    is preserved under ring routing.  Returns the cluster, the poisoned
    op, its two dependents, an op concurrent with it, and the seqs node
    0's local mitigation reverted — the poisoned op's span there (the
    local ladder itself is exercised in test_cluster_promotion.py).
    """
    cluster = Cluster(n_nodes=3, n_clients=2, replication=1)
    a = ClusterClient(cluster, 0)
    b = ClusterClient(cluster, 1)
    for key in range(30):
        a.insert(key, 500 + key)
    poison_op = b.insert(cluster.keys_for_node(0, 1, start=1000)[0], 999)
    # client a keeps working without observing the poisoned insert:
    # concurrent with it, so it must survive the cascade
    indep = a.insert(cluster.keys_for_node(1, 1, start=20_000)[0], 531)
    # b issued the poisoned insert, so its later writes on other nodes
    # are cross-node causal dependents of it
    dep1 = b.insert(cluster.keys_for_node(1, 1, start=10_000)[0], 1000)
    dep2 = b.insert(cluster.keys_for_node(2, 1, start=10_000)[0], 1001)
    first, last = poison_op.spans[0]
    return cluster, poison_op, (dep1, dep2), indep, set(range(first, last + 1))


class TestDistributedRecovery:
    def test_cascading_recovery(self):
        cluster, poison_op, deps, indep, seqs = _poisoned_cluster()
        reactor = DistributedReactor(cluster)
        discarded, cascaded, rounds = reactor.cascade_from(0, seqs)
        # the poisoned insert was discarded...
        assert [op.op_id for op in discarded] == [poison_op.op_id]
        # ...its causal dependents on other nodes were cascaded...
        cascaded_ids = {op.op_id for op in cascaded}
        assert deps[0].op_id in cascaded_ids
        assert deps[1].op_id in cascaded_ids
        assert rounds >= 1
        # ...and all of them are gone from every live mirror
        for nid in (1, 2):
            for op in (poison_op,) + deps:
                assert cluster.nodes[nid].lookup(op.key) == ABSENT
        # the independent concurrent op survived
        assert indep.op_id not in cascaded_ids
        assert cluster.nodes[indep.node].lookup(indep.key) == 531

    def test_no_cascade_without_dependents(self):
        cluster = Cluster(n_nodes=2, n_clients=1)
        client = ClusterClient(cluster, 0)
        client.insert(0, 1)
        reactor = DistributedReactor(cluster)
        # nothing discarded -> nothing cascades
        orphans = reactor._orphans_of([])
        assert orphans == []

    def test_dimension_mismatch_surfaces_through_mitigate(self):
        # a tampered (wrong-topology) clock must fail loudly at the one
        # door a clock enters the oplog by, never be truncated or padded
        # into the fixed-stride clock column the cascade compares
        cluster, poison_op, deps, indep, seqs = _poisoned_cluster()
        n_ops = len(cluster.oplog)
        dep = deps[0]
        for tampered in (dep.vc + (0,), dep.vc[:-1]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                cluster.oplog.append(
                    dep.client, dep.node, "insert", dep.key, 1, tampered,
                    {dep.node: dep.spans[dep.node]},
                )
        assert len(cluster.oplog) == n_ops
        assert len(cluster.oplog._vc) == n_ops * cluster.oplog.dims
        # the refused clock left nothing behind: the cascade still runs
        _, cascaded, _ = DistributedReactor(cluster).cascade_from(0, seqs)
        assert {op.op_id for op in deps} <= {op.op_id for op in cascaded}


def _chain_cluster(n_nodes, n_clients):
    """A root op, a four-hop chain of derived inserts after it spread
    over every client, and an op issued before the root."""
    cluster = Cluster(
        n_nodes=n_nodes, n_clients=n_clients,
        replication=min(2, n_nodes),
    )
    clients = [ClusterClient(cluster, i) for i in range(n_clients)]
    a = clients[0]
    for key in range(20):
        a.insert(key, 500 + key)
    # an op issued before the root is causally independent of it
    indep = clients[-1].insert(5000, 9)
    root = a.insert(1000, 1)
    chain = []
    key = 1000
    for i in range(4):
        c = clients[(i + 1) % n_clients]
        rec = c.derived_insert(key, key + 1)
        assert rec is not None
        chain.append(rec)
        key += 1
    return cluster, root, chain, indep


def _orphan_rounds_match_oracle(cluster, root):
    """Run the cascade's orphan rounds from ``root`` (discard flags
    only, no reverts), checking each round against the quadratic
    oracle; returns the rounds."""
    reactor = DistributedReactor(cluster)
    root.discarded = True
    frontier, rounds = [root], []
    while frontier:
        orphans = reactor._orphans_of(frontier)
        assert orphans == orphans_of(cluster, frontier)
        for op in orphans:
            op.discarded = True
        rounds.append(orphans)
        frontier = orphans
    return rounds


class TestMixedTopologies:
    """Cascade correctness across cluster shapes (satellite: n_nodes in
    {2, 5} x n_clients in {1, 3}, cyclic chains, fixpoint)."""

    @pytest.mark.parametrize(
        "n_nodes,n_clients", [(2, 1), (2, 3), (5, 1), (5, 3)]
    )
    def test_orphan_pass_matches_quadratic_oracle(self, n_nodes, n_clients):
        cluster, root, chain, indep = _chain_cluster(n_nodes, n_clients)
        rounds = _orphan_rounds_match_oracle(cluster, root)
        orphaned = {op.op_id for orphans in rounds for op in orphans}
        assert {op.op_id for op in chain} <= orphaned
        assert indep.op_id not in orphaned

    def test_orphan_pass_is_linear_past_a_thousand_orphans(self):
        cluster = Cluster(n_nodes=3, n_clients=2, replication=2)
        a, b = ClusterClient(cluster, 0), ClusterClient(cluster, 1)
        for key in range(300):
            b.insert(key, 500 + key)  # before the root: they survive
        root = a.insert(1000, 1)
        for key in range(1001, 2201):
            a.insert(key, key)  # client a's later writes: orphans
        rounds = _orphan_rounds_match_oracle(cluster, root)
        assert [len(orphans) for orphans in rounds] == [1200, 0]
        # the second round's 1,200-op frontier against 300 survivors:
        # the oracle makes 360k clock comparisons, the pass a few hundred
        frontier = rounds[0]
        reactor = DistributedReactor(cluster)
        t0 = time.perf_counter()
        assert orphans_of(cluster, frontier) == []
        quadratic = time.perf_counter() - t0
        linear = min(_timed(reactor._orphans_of, frontier) for _ in range(3))
        assert linear * 10 < quadratic, (linear, quadratic)

    @pytest.mark.parametrize(
        "n_nodes,n_clients", [(2, 1), (2, 3), (5, 1), (5, 3)]
    )
    def test_synthetic_cascade_reaches_fixpoint(self, n_nodes, n_clients):
        cluster, root, chain, indep = _chain_cluster(n_nodes, n_clients)
        reactor = DistributedReactor(cluster)
        first, last = root.spans[root.node]
        seqs = set(range(first, last + 1))
        discarded, cascaded, rounds = reactor.cascade_from(root.node, seqs)
        assert root in discarded
        cascaded_ids = {op.op_id for op in cascaded}
        assert {rec.op_id for rec in chain} <= cascaded_ids
        assert indep.op_id not in cascaded_ids
        assert rounds >= 1
        # fixpoint: a second pass over the same seqs finds no new orphans
        _, again, _ = reactor.cascade_from(root.node, seqs)
        assert again == []

    def test_cyclic_causal_chain_terminates(self):
        # derived writes ping-pong between two keys, overwriting each
        # other: the key-level dependency graph is cyclic, but the
        # op-level cascade still reaches a fixpoint in finite rounds
        cluster = Cluster(n_nodes=2, n_clients=2, replication=1)
        a = ClusterClient(cluster, 0)
        b = ClusterClient(cluster, 1)
        for key in range(10):
            a.insert(key, 500 + key)
        root = a.insert(100, 1)
        hops = []
        src, dst = 100, 101
        for i in range(6):
            c = b if i % 2 == 0 else a
            rec = c.derived_insert(src, dst)
            assert rec is not None
            hops.append(rec)
            src, dst = dst, src  # write back over the previous key
        reactor = DistributedReactor(cluster)
        first, last = root.spans[root.node]
        discarded, cascaded, rounds = reactor.cascade_from(
            root.node, set(range(first, last + 1))
        )
        assert root in discarded
        cascaded_ids = {op.op_id for op in cascaded}
        assert {rec.op_id for rec in hops} <= cascaded_ids
        assert rounds <= len(hops) + 1  # terminated, no infinite loop


def _log_guest_writes(cluster):
    """Record every insert/delete run on a node's adapter, in order."""
    writes = []
    for nid, node in enumerate(cluster.nodes):
        def insert(key, value, nid=nid, inner=node.insert):
            writes.append((nid, "insert", key, value))
            return inner(key, value)

        def delete(key, nid=nid, inner=node.delete):
            writes.append((nid, "delete", key))
            return inner(key)

        node.insert, node.delete = insert, delete
    return writes


def _cascade_outcome(build, reactor_cls):
    """Guest writes, discarded and cascaded op ids, and per-node
    digests of one cascade from ``build()``'s root op."""
    cluster, root = build()
    writes = _log_guest_writes(cluster)
    first, last = root.spans[root.node]
    discarded, cascaded, _ = reactor_cls(cluster).cascade_from(
        root.node, set(range(first, last + 1))
    )
    return (
        writes, [op.op_id for op in discarded],
        [op.op_id for op in cascaded],
        [pool_digest(n.pool, n.allocator) for n in cluster.nodes],
    )


def _rewritten_chain_cluster(n_nodes, n_clients):
    """A root op and a chain of derived inserts after it, on keys that
    each hold an older surviving write (key 1002's is a delete)."""
    cluster = Cluster(
        n_nodes=n_nodes, n_clients=n_clients,
        replication=min(2, n_nodes),
    )
    clients = [ClusterClient(cluster, i) for i in range(n_clients)]
    for key in range(1000, 1005):
        clients[-1].insert(key, 7000 + key)
    clients[-1].delete(1002)
    root = clients[0].insert(1000, 1)
    for i, key in enumerate(range(1000, 1004)):
        assert clients[(i + 1) % n_clients].derived_insert(key, key + 1)
    return cluster, root


def _missed_write_cluster():
    """A root op whose key has a newer surviving write that three nodes
    missed: the root's two replicas and a rebuilt-then-rebased node were
    down while it was applied, and came back up still awaiting a rebase
    (the stream was truncated past them)."""
    cluster = Cluster(n_nodes=5, n_clients=2, replication=2)
    a, b = ClusterClient(cluster, 0), ClusterClient(cluster, 1)
    for key in range(40):
        a.insert(key, 500 + key)
    cluster.ring.mark_down(4)
    cluster.rebuild_node(4)
    cluster.rebase_node(4)
    cluster.ring.mark_up(4)
    a.insert(1000, 1)
    root = a.insert(1000, 2)
    cluster.drain()
    pref = cluster.ring.preference_list(1000)
    missed = (pref[0], pref[1], pref[-1])
    assert 4 in missed
    for nid in missed:
        cluster.ring.mark_down(nid)
    # routed past the root's replicas, whose clocks hold the root: b's
    # write is concurrent with the root and survives it
    b.insert(1000, 3)
    for key in range(2000, 2020):
        b.insert(key, key)
    cluster.drain()
    for nid in missed:
        cluster.ring.mark_up(nid)
    return cluster, root


class TestRevertLookups:
    """The cascade looks up a key's newest surviving row once for all
    nodes; it must restore exactly what per-node lookups restore."""

    @pytest.mark.parametrize(
        "n_nodes,n_clients", [(2, 1), (2, 3), (5, 1), (5, 3)]
    )
    def test_reverts_match_per_node_lookups(self, n_nodes, n_clients):
        def build():
            return _rewritten_chain_cluster(n_nodes, n_clients)

        shared = _cascade_outcome(build, DistributedReactor)
        assert shared == _cascade_outcome(build, PerNodeRevertReactor)
        writes, discarded, cascaded, _ = shared
        assert len(discarded) == 1 and len(cascaded) >= 4
        assert any(w[1:] == ("delete", 1002) for w in writes)
        assert any(w[1] == "insert" and w[3] >= 7000 for w in writes)

    def test_node_missing_the_newest_row_searches_its_own(self):
        shared = _cascade_outcome(_missed_write_cluster, DistributedReactor)
        assert shared == _cascade_outcome(
            _missed_write_cluster, PerNodeRevertReactor
        )
        writes = shared[0]
        # nodes holding the newer write restore it; the nodes that
        # missed it restore the write before the root
        restored = {w[0]: w[3] for w in writes if w[2] == 1000}
        assert sorted(set(restored.values())) == [1, 3]
        assert restored[4] == 1
