"""Distributed hard-fault recovery (the paper's Section 7 sketch).

Three PM nodes behind a consistent-hash ring serve a keyspace with
replication factor 2; clients stamp requests with vector clocks.  Node
0 gets wedged by the memcached refcount bug (f1) and one call to the
shard supervisor's heal detects the failure, confirms it hard (a
restart reproduces it) and runs the promotion protocol:

1. *promote* — node 0 is marked down; its replicas take over the arc,
2. *serve* — a window of reads and writes flows mid-heal: healthy
   shards answer as usual, writes aimed at the sick arc fail over,
3. *mitigate* — the local Arthas reactor discards the poisoned state
   (and, were every rung to fail, the *rebuild* phase would abandon
   the pool and re-base it from a live mirror),
4. *cascade* — requests causally after a discarded one are reverted
   on whatever node applied them, until the cut is causally
   consistent,
5. *resync/handoff* — the healed node is re-based by copying a live
   mirror's current state, which holds every op and revert it missed,
   and rejoins as a replica (demoted, never re-promoted).

Run:  python examples/distributed_recovery.py
"""

from repro.distributed import Cluster, ClusterClient
from repro.distributed.shardmgr import ShardManager
from repro.faults.registry import scenario_by_id
from repro.harness.experiment import ExperimentContext


def main():
    scenario = scenario_by_id("f1")
    cluster = Cluster(n_nodes=3, n_clients=2, replication=2)
    alice = ClusterClient(cluster, 0)
    bob = ClusterClient(cluster, 1)

    for key in range(30):
        alice.insert(key, 500 + key)
    print(f"3 nodes (replication 2), 30 keys loaded; "
          f"lookup(7) = {alice.lookup(7)}")

    # wedge node 0: the f1 refcount overflow poisons one of its buckets
    node0 = cluster.nodes[0]
    ctx = ExperimentContext(node0, scenario, seed=0)
    ctx.oracle = cluster.oracles[0]
    scenario.trigger(ctx)

    # keys whose pre-fault primary is node 0: written during the heal,
    # they must fail over to replicas and land back on node 0 at resync
    arc_keys = cluster.keys_for_node(0, 3, start=1000)
    window = {"reads": [], "writes": []}

    def serve(phase):
        if phase != "promote":
            return
        assert cluster.is_down(0)
        for key in range(6):          # healthy-shard reads keep flowing
            window["reads"].append(bob.lookup(key))
        for key in arc_keys:          # the sick arc accepts writes
            rec = bob.insert(key, 9000 + key)
            assert rec.node != 0
            window["writes"].append(rec)

    mgr = ShardManager(cluster, solution="arthas", seed=0)
    report = mgr.heal(0, ctx, serve=serve)
    failure = report.signature
    print(f"node 0 failure: {failure.kind} in {failure.location} "
          f"(confirmed hard: {report.confirmed_hard})")
    print(f"heal: recovered={report.recovered} via {report.recovered_by}, "
          f"phases={report.phases}")
    print(f"served mid-heal: {len(window['reads'])} reads, "
          f"{len(window['writes'])} failed-over writes")
    print(f"resync replayed {report.resync_replayed} missed op(s); "
          f"node 0 rejoined demoted={report.demoted}")

    print("post-recovery state:")
    for op in window["writes"]:
        if 0 in op.spans:
            print(f"  window write key {op.key} -> node 0 now serves "
                  f"{cluster.nodes[0].lookup(op.key)}")
    survivors = sum(1 for k in range(30) if alice.lookup(k) == 500 + k)
    print(f"  {survivors}/30 pre-fault keys intact")
    for row in mgr.health_table():
        print(f"  shard {row['node']}: {row['status']} "
              f"(score {row['score']})")
    assert report.recovered and report.demoted


if __name__ == "__main__":
    main()
