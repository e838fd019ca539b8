"""The distributed recovery coordinator (paper Section 7 sketch).

Protocol, in the terms of Elnozahy et al.'s rollback-recovery survey
(which the paper cites as the blueprint):

1. **Local recovery.**  The failing node runs its local Arthas reactor
   exactly as in the single-node case — the shard supervisor
   (:mod:`repro.distributed.shardmgr`) drives it after promoting the
   node's keys to their mirrors.
2. **Damage assessment.**  The reverted sequence numbers are mapped back
   through the operation log to the client requests they discarded.
3. **Causal cascade.**  Any request whose vector clock is causally after
   a discarded request (the client observed discarded state before
   issuing it) is *orphaned*: the coordinator reverts it on every live
   node that applied it.  New orphans found there cascade in turn,
   until a fixpoint.

The cascade is *promotion-aware*: operations are mirrored, so a
discarded or orphaned op is reverted on each node in its span map —
which is how an orphan whose primary is down (demoted, mid-mitigation)
still gets cleaned up through its mirrors.  Nodes that are down when the
cascade runs are skipped; re-sync re-bases them from a live mirror that
already carries the reverts.

The result is a causally consistent cut: no surviving request depends
on discarded state.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.distributed.cluster import Cluster, OpRecord, minimal_clocks


class DistributedReactor:
    """Coordinator running the cascade over one cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    # ------------------------------------------------------------------
    def cascade_from(
        self, failing_node: int, reverted_seqs: Set[int]
    ) -> Tuple[List[OpRecord], List[OpRecord], int]:
        """Damage assessment + causal cascade after a local recovery.

        ``reverted_seqs`` are the checkpoint sequence numbers the local
        mitigation reverted *on the failing node*.  Maps them to the
        client ops they discarded, reverts them on every live mirror,
        then cascades orphans to a fixpoint.  Returns
        ``(discarded, cascaded, rounds)``.
        """
        # every live mirror must be current before reverts — guest-level
        # mutations outside the delta stream — execute on it
        self.cluster.drain()
        discarded = self.cluster.ops_overlapping_seqs(
            failing_node, set(reverted_seqs)
        )
        log = self.cluster.oplog
        for op in discarded:
            op.discarded = True
            # the local mitigation already reverted the failing node
            log.mark_reverted(op._row, failing_node)
            self._revert_spans(op)

        cascaded: List[OpRecord] = []
        rounds = 0
        frontier = list(discarded)
        while frontier:
            rounds += 1
            orphans = self._orphans_of(frontier)
            if not orphans:
                break
            for orphan in orphans:
                orphan.discarded = True
                self._revert_spans(orphan)
            cascaded.extend(orphans)
            frontier = orphans
        return discarded, cascaded, rounds

    # ------------------------------------------------------------------
    def _orphans_of(self, discarded: List[OpRecord]) -> List[OpRecord]:
        """Not-yet-discarded ops causally after any discarded op, in
        oplog order.

        Each surviving op is compared only against the minimal clocks
        of ``discarded`` (any clock above a discarded one lies above a
        minimal one), read straight off the clock column, so a round is
        linear in the oplog however many ops it discards.
        """
        log = self.cluster.oplog
        minimal = minimal_clocks(op.vc for op in discarded)
        return [OpRecord(log, row) for row in log.surviving_rows_after(minimal)]

    def _revert_spans(self, op: OpRecord) -> None:
        """Revert an op on every live node in its span map.

        Down nodes are skipped: re-sync re-bases them from a live mirror,
        which already carries the revert.  The key's newest surviving
        row is looked up once: it is the last surviving write of every
        node holding its span, so only a node without that span (one
        awaiting a rebase) searches on for its own.
        """
        log, row, key = self.cluster.oplog, op._row, op.key
        nodes = log.span_nodes(row)
        newest = next(log.surviving_rows_of(key), None)
        for node_id in nodes:
            if log.is_reverted(row, node_id):
                continue
            if self.cluster.is_down(node_id):
                continue
            surviving = newest
            if newest is not None and log.span(newest, node_id) is None:
                rows = log.surviving_rows_of(key)
                surviving = next(
                    (r for r in rows if log.span(r, node_id)), None
                )
            self._revert_op_on(op, node_id, surviving)
            log.mark_reverted(row, node_id)
        # conservative oracle maintenance: a discarded key is no longer
        # a trustworthy reference point on any node that applied it
        for node_id in nodes:
            self.cluster.oracles[node_id].pop(key, None)

    def _revert_op_on(
        self, op: OpRecord, node_id: int, surviving: Optional[int]
    ) -> None:
        """Revert one operation on one node by logical anti-entropy.

        Physical checkpoint-seq surgery is reserved for the failing
        node's supervised ladder, where re-execution verifies the
        result.  On a live peer it is unsafe: an op's span can include
        structural writes (a CCEH directory doubling, a level-hash
        resize) that *later surviving* inserts depend on, and reverting
        them leaves the pool unrecoverable.  The peer instead restores
        the key to ``surviving``, the row of its last surviving write
        with a span on the node (``None``: there is none) — the same
        causally consistent cut, reached through the system's own front
        door.  Idempotent (a pure function of the log), so a
        crashed-and-retried cascade converges.
        """
        node = self.cluster.nodes[node_id]
        if surviving is None:
            node.delete(op.key)
            return
        last = OpRecord(self.cluster.oplog, surviving)
        if last.kind == "delete":
            node.delete(op.key)
        else:
            node.insert(op.key, last.value)
