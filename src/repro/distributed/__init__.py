"""Distributed hard-fault recovery (paper Section 7, future work).

The paper sketches how Arthas could extend beyond a single component:

  "We could have each component checkpoint PM states locally, and add a
   global coordinator that runs a special rollback-recovery protocol.
   We can expose the Arthas metadata in each component to the
   coordinator for determining an effective recovery plan.  For external
   dependencies created by clients ... the PM system and client can
   maintain vector clocks; after the PM system successfully rollbacks to
   a particular point, the client will then be notified to rollback its
   events with vector clocks after that point."

This package implements that sketch at laptop scale:

* :mod:`repro.distributed.cluster` — a cluster of independent PM nodes
  (each with its own pool, checkpoint log, trace and analyzer metadata),
  a client layer that stamps every request with a vector clock, and an
  operation log mapping requests to checkpoint sequence ranges.
* :mod:`repro.distributed.recovery` — the coordinator: map the failing
  node's locally reverted sequence numbers back to client requests, and
  cascade-revert every request that causally follows a discarded one
  (Fidge/Mattern happens-before over the vector clocks), node by node,
  until the closure is empty.

Beyond the sketch, the package now serves *through* failures:

* :mod:`repro.distributed.ring` — consistent-hash placement with
  virtual nodes; replica promotion is a ring status flag, so failover
  moves no data.
* :mod:`repro.distributed.shardmgr` — the shard supervisor and the one
  heal path, :meth:`ShardManager.heal`: detection and hard-fault
  confirmation on the sick node, then journaled promote → mitigate →
  rebuild → cascade → resync/handoff phases, each crash-retried and
  idempotent, with per-shard health scores.  Every cluster heal in the
  package, its CLI and the cluster sweep goes through it.
"""

from repro.distributed.cluster import (
    Cluster,
    ClusterClient,
    OpRecord,
    ShardUnavailable,
)
from repro.distributed.recovery import DistributedReactor
from repro.distributed.ring import HashRing
from repro.distributed.shardmgr import HealReport, NodeHealth, ShardManager

__all__ = [
    "Cluster",
    "ClusterClient",
    "OpRecord",
    "ShardUnavailable",
    "DistributedReactor",
    "HashRing",
    "HealReport",
    "NodeHealth",
    "ShardManager",
]
