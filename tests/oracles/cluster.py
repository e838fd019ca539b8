"""The re-execution replication oracle and the quadratic orphan pass."""

from typing import Dict, List, Optional, Tuple

from repro.distributed.cluster import (
    Cluster,
    OpRecord,
    ShardUnavailable,
    vc_less,
)


class ReexecCluster(Cluster):
    """A :class:`Cluster` that runs each mutation through the guest on
    every replica-set node, in chain order, instead of executing once on
    the primary and shipping the word delta.

    No delta is ever enqueued, so the drain/compact machinery the base
    class keeps stays idle.  At ``replication == n_nodes`` every node
    sees every op in oplog order, which is the regime where delta
    shipping must be byte-identical to it.
    """

    def _apply(
        self, client: int, kind: str, key: int, value: Optional[int]
    ) -> OpRecord:
        node_ids = self.replica_nodes_for(key)
        if not node_ids:
            raise ShardUnavailable(key)
        spans: Dict[int, Tuple[int, int]] = {}
        for nid in node_ids:
            node = self.nodes[nid]
            first = node.ckpt.log.max_seq() + 1
            if kind == "insert":
                node.insert(key, value)
                self.oracles[nid][key] = value
            else:
                node.delete(key)
                self.oracles[nid].pop(key, None)
            spans[nid] = (first, node.ckpt.log.max_seq())
        return self._log_op(client, kind, key, value, node_ids, spans)


def orphans_of(cluster: Cluster, discarded: List[OpRecord]) -> List[OpRecord]:
    """``DistributedReactor._orphans_of`` as it was: every surviving op
    compared against every discarded op."""
    orphans = []
    for op in cluster.oplog:
        if op.discarded:
            continue
        for gone in discarded:
            if vc_less(gone.vc, op.vc):
                orphans.append(op)
                break
    return orphans
