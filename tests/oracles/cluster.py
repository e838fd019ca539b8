"""The re-execution replication oracle."""

from typing import Dict, Optional, Tuple

from repro.distributed.cluster import Cluster, OpRecord, ShardUnavailable


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
