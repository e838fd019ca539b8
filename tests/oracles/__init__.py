"""Reference engines the production fast paths are pinned against.

Each oracle is the slower, obviously-correct implementation a production
mechanism replaced.  Only equivalence tests import them; production code
has no hook for selecting one.  Tests swap an oracle in by subclassing or
with ``monkeypatch`` on the name production code looks up:

* :class:`TableMachine` — per-step table dispatch for every run, never
  the fused segment runner (patch ``repro.systems.common.Machine``);
* :class:`SnapshotProbeEngine` — bisect probes by full snapshot restore
  plus prefix replay (patch ``repro.reactor.revert._DeltaProbeEngine``);
* :class:`ReexecCluster` — replication by re-executing each op on every
  replica-set node instead of shipping its word delta;
* :func:`orphans_of` — the cascade's orphan pass comparing every
  surviving op against every discarded one;
* :class:`PerNodeRevertReactor` — a cascade that searches the oplog
  for each node's last surviving write on a key separately;
* :mod:`~tests.oracles.ring` — ring placement by walking the ring on
  every lookup (``preference_list``, ``primary_for``, ``replica_set``),
  each taking the ring as first argument;
* :mod:`~tests.oracles.checkpoint` — the seed's linear-scan
  checkpoint-log queries (``entries_overlapping``, ``expected_word``,
  ``newest_free_covering`` ...), each taking the log as first argument;
* :class:`LinearScanReverter` — a ``Reverter`` whose range
  reconstruction, rollback and dangling-pointer guard run those scans;
* :func:`reference_compute_plan` — the seed plan join: re-slice every
  round (PDG cache cleared), join traced addresses by full scan, rank
  in the production order;
* :func:`seed_instrument_module` — the seed instrumentation pass, a
  tracing call at every PM instruction (no covered geps).
"""

from tests.oracles import checkpoint, ring
from tests.oracles.checkpoint import LinearScanReverter, reference_compute_plan
from tests.oracles.cluster import (
    PerNodeRevertReactor,
    ReexecCluster,
    orphans_of,
)
from tests.oracles.instrument import seed_instrument_module
from tests.oracles.probe import SnapshotProbeEngine
from tests.oracles.vm import TableMachine

__all__ = [
    "LinearScanReverter",
    "PerNodeRevertReactor",
    "ReexecCluster",
    "SnapshotProbeEngine",
    "TableMachine",
    "checkpoint",
    "orphans_of",
    "reference_compute_plan",
    "ring",
    "seed_instrument_module",
]
