"""Reversion-plan computation (paper Section 4.5).

``slice × trace × checkpoint log -> candidate sequence numbers``:

* backward-slice the fault instruction over the PDG — one BFS, which
  also gives every slice node its distance from the fault — and keep
  the nodes with persistent operands,
* for each kept node no farther than :data:`MAX_SLICE_DISTANCE`, look
  up its runtime PM addresses in the trace (a covered gep's are its
  carriers' records, :meth:`GuidMap.carriers`),
* for each address, collect the sequence numbers of checkpoint-log
  versions covering it,
* keep one candidate per sequence number and rank the candidates by
  value-flow rank, then slice distance, then newest first.

That ranking is the paper's "more complex policy function", and the
only one: every plan request — the reverter rungs, the live server's
quarantine horizon, the ablation bench — gets the same order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import AnalysisResult
from repro.analysis.slicing import slice_distances
from repro.checkpoint.log import CheckpointLog
from repro.instrument.guids import GuidMap
from repro.instrument.tracer import PMTrace
from repro.lang.interp import park

#: slice nodes farther than this many PDG hops from the fault
#: instruction yield no candidates, bounding collateral reversions
MAX_SLICE_DISTANCE = 8

#: slice-node opcodes that represent genuine value flow; candidates found
#: through them rank ahead of candidates found only through address
#: computations (gep) or persistence plumbing (persist/flush/txadd),
#: which alias to many unrelated sequence numbers
_VALUE_FLOW_OPS = frozenset({"store", "load", "alloc", "realloc", "setroot", "getroot"})


@dataclass(frozen=True)
class Candidate:
    """One potentially revertible PM update."""

    seq: int
    addr: int
    guid: str
    slice_iid: int


@dataclass
class ReversionPlan:
    """Ordered candidate list plus slicing metadata."""

    fault_iid: int
    candidates: List[Candidate] = field(default_factory=list)
    slice_size: int = 0
    pm_slice_size: int = 0
    #: seconds spent slicing (Table 9's "Slicing" row)
    slicing_seconds: float = 0.0

    def seqs(self) -> List[int]:
        return [c.seq for c in self.candidates]

    @property
    def empty(self) -> bool:
        """An empty plan means the failure is not caused by bad PM state
        (detector false alarm); the reactor aborts and simply restarts."""
        return not self.candidates


def compute_plan(
    analysis: AnalysisResult,
    guid_map: GuidMap,
    trace: PMTrace,
    log: CheckpointLog,
    fault_iid: int,
    slice_override: Optional[Set[int]] = None,
) -> ReversionPlan:
    """Build the ranked candidate list for one fault instruction.

    ``slice_override`` substitutes an externally computed slice (e.g. a
    *dynamic* slice from :mod:`repro.analysis.dynslice`) for the static
    backward slice; distances still come from the static PDG, and
    everything downstream (PM filtering, trace/log join, ranking) is
    unchanged.  The join calls :func:`~repro.lang.interp.park` once per
    PM slice node, so a live server keeps serving while it runs.
    """
    start = time.perf_counter()
    trace.flush()  # catch up on buffered records before joining
    log._flush_staging()  # merge the staged tail before the trace/log join
    dist = slice_distances(analysis.pdg, fault_iid)
    full_slice = set(slice_override) if slice_override is not None else dist.keys()
    pm_nodes = {n for n in full_slice if analysis.pm.is_pm_instr(n)}

    module = analysis.module
    best: Dict[int, Candidate] = {}
    rank: Dict[int, Tuple[int, int]] = {}
    for iid in pm_nodes:
        park()  # once per PM slice node, near or far
        d = dist.get(iid)
        if d is None or d > MAX_SLICE_DISTANCE:
            continue
        key = (0 if module.instr(iid).op in _VALUE_FLOW_OPS else 1, d)
        guid = guid_map.guid_of(iid)
        for carrier in guid_map.carriers(iid):
            for addr in trace.addresses_for_guid(carrier):
                for seq in log.update_seqs_for_address(addr):
                    if seq not in best or key < rank[seq]:
                        best[seq] = Candidate(seq=seq, addr=addr, guid=guid, slice_iid=iid)
                        rank[seq] = key
    return ReversionPlan(
        fault_iid=fault_iid,
        candidates=sorted(best.values(), key=lambda c: (rank[c.seq], -c.seq)),
        slice_size=len(full_slice),
        pm_slice_size=len(pm_nodes),
        slicing_seconds=time.perf_counter() - start,
    )
