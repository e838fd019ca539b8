"""The re-execution replication oracle, the quadratic orphan pass and
the per-node revert lookup."""

from typing import Dict, List, Optional, Tuple

from repro.distributed.cluster import (
    Cluster,
    OpLog,
    OpRecord,
    ShardUnavailable,
    vc_less,
)
from repro.distributed.recovery import DistributedReactor


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


def last_surviving_on(log: OpLog, key: int, node: int) -> Optional[int]:
    """Row of the newest op on ``key`` that is not discarded and has a
    span on ``node`` (None when there is none), by a backwards scan."""
    for row in range(len(log) - 1, -1, -1):
        if (
            log._key[row] == key and not log._discarded[row]
            and log.span(row, node) is not None
        ):
            return row
    return None


class PerNodeRevertReactor(DistributedReactor):
    """A :class:`DistributedReactor` whose cascade searches the oplog
    for each node's last surviving write on the op's key separately
    instead of sharing the key's newest surviving row across the nodes
    that hold it."""

    def _revert_spans(self, op: OpRecord) -> None:
        log, row = self.cluster.oplog, op._row
        nodes = log.span_nodes(row)
        for node_id in nodes:
            if log.is_reverted(row, node_id) or self.cluster.is_down(node_id):
                continue
            node = self.cluster.nodes[node_id]
            last = last_surviving_on(log, op.key, node_id)
            surviving = None if last is None else OpRecord(log, last)
            if surviving is None or surviving.kind == "delete":
                node.delete(op.key)
            else:
                node.insert(op.key, surviving.value)
            log.mark_reverted(row, node_id)
        for node_id in nodes:
            self.cluster.oracles[node_id].pop(op.key, None)
