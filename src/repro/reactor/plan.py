"""Reversion-plan computation (paper Section 4.5).

``slice × trace × checkpoint log -> candidate sequence numbers``:

* backward-slice the fault instruction over the PDG, retaining nodes with
  persistent operands,
* for each retained node, look up its runtime PM addresses in the trace
  (a covered gep's are its carriers' records, :meth:`GuidMap.carriers`),
* for each address, collect the sequence numbers of checkpoint-log
  versions covering it,
* apply a policy function to order and de-duplicate the result.

The default policy de-duplicates and sorts newest-first (reversions walk
back in time towards the root cause).  The distance policy additionally
orders by slice distance from the fault and can cap the distance — the
paper's "more complex function".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.analysis import AnalysisResult
from repro.analysis.slicing import backward_slice, slice_distances
from repro.checkpoint.log import CheckpointLog
from repro.instrument.guids import GuidMap
from repro.instrument.tracer import PMTrace


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


PolicyFn = Callable[[List[Candidate], "PlanContext"], List[Candidate]]


@dataclass
class PlanContext:
    """Inputs a policy function may consult."""

    analysis: AnalysisResult
    fault_iid: int


def default_policy(candidates: List[Candidate], ctx: PlanContext) -> List[Candidate]:
    """De-duplicate by sequence number; newest first."""
    best: Dict[int, Candidate] = {}
    for c in candidates:
        best.setdefault(c.seq, c)
    return [best[s] for s in sorted(best, reverse=True)]


#: slice-node opcodes that represent genuine value flow; candidates found
#: through them rank ahead of candidates found only through address
#: computations (gep) or persistence plumbing (persist/flush/txadd),
#: which alias to many unrelated sequence numbers
_VALUE_FLOW_OPS = frozenset({"store", "load", "alloc", "realloc", "setroot", "getroot"})


def distance_policy(max_distance: Optional[int] = None) -> PolicyFn:
    """Order by (value-flow rank, slice distance, newest-first).

    ``max_distance`` filters out candidates whose slice node is too far
    from the fault instruction, bounding excessive reversions.
    """

    def policy(candidates: List[Candidate], ctx: PlanContext) -> List[Candidate]:
        dist = slice_distances(ctx.analysis.pdg, ctx.fault_iid)
        module = ctx.analysis.module
        best: Dict[int, Candidate] = {}
        order: Dict[int, tuple] = {}
        for c in candidates:
            d = dist.get(c.slice_iid, 1 << 30)
            if max_distance is not None and d > max_distance:
                continue
            rank = 0 if module.instr(c.slice_iid).op in _VALUE_FLOW_OPS else 1
            key = (rank, d)
            if c.seq not in best or key < order[c.seq]:
                best[c.seq] = c
                order[c.seq] = key
        return sorted(best.values(), key=lambda c: (order[c.seq], -c.seq))

    return policy


def compute_plan(
    analysis: AnalysisResult,
    guid_map: GuidMap,
    trace: PMTrace,
    log: CheckpointLog,
    fault_iid: int,
    policy: Optional[PolicyFn] = None,
    max_slice_nodes: Optional[int] = None,
    slice_override: Optional[Set[int]] = None,
    yield_fn: Optional[Callable[[], None]] = None,
) -> ReversionPlan:
    """Build the candidate list for one fault instruction.

    ``slice_override`` substitutes an externally computed slice (e.g. a
    *dynamic* slice from :mod:`repro.analysis.dynslice`) for the static
    backward slice; everything downstream (PM filtering, trace/log join,
    policy ordering) is unchanged.  ``yield_fn`` (when set) is invoked
    once per PM slice node during the trace/log join so a live server
    can keep serving while the plan is computed.
    """
    start = time.perf_counter()
    trace.flush()  # catch up on buffered records before joining
    log._flush_staging()  # merge the staged tail before the trace/log join
    if slice_override is not None:
        full_slice = set(slice_override)
    else:
        full_slice = backward_slice(
            analysis.pdg, fault_iid, max_nodes=max_slice_nodes
        )
    pm_nodes: Set[int] = {n for n in full_slice if analysis.pm.is_pm_instr(n)}

    candidates: List[Candidate] = []
    for iid in pm_nodes:
        if yield_fn is not None:
            yield_fn()
        guid = guid_map.guid_of(iid)
        for carrier in guid_map.carriers(iid):
            for addr in trace.addresses_for_guid(carrier):
                for seq in log.update_seqs_for_address(addr):
                    candidates.append(
                        Candidate(seq=seq, addr=addr, guid=guid, slice_iid=iid)
                    )

    ctx = PlanContext(analysis=analysis, fault_iid=fault_iid)
    chosen_policy = policy if policy is not None else default_policy
    ordered = chosen_policy(candidates, ctx)
    return ReversionPlan(
        fault_iid=fault_iid,
        candidates=ordered,
        slice_size=len(full_slice),
        pm_slice_size=len(pm_nodes),
        slicing_seconds=time.perf_counter() - start,
    )
