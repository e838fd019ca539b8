"""Program slicing over the PDG (Weiser-style backward slices).

The reactor slices the fault instruction and keeps only nodes with
persistent-memory operands (paper Section 4.5); the slice is then joined
against the runtime PM-address trace to find checkpoint entries.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.analysis.pdg import PDG
from repro.analysis.pmvars import PMClassification


def backward_slice(
    pdg: PDG, iid: int, max_nodes: Optional[int] = None
) -> Set[int]:
    """All instructions that may affect ``iid`` (including itself).

    ``max_nodes`` implements the paper's analysis timeout: when the slice
    grows past the limit, exploration stops and the partial (still useful,
    possibly incomplete) slice is returned.

    Slices are memoized on the PDG (keyed by ``(iid, max_nodes)``):
    detector/reactor rounds and the purge->rollback fallback re-slice the
    same fault up to 8x per mitigation, and the graph never changes after
    analysis (``add_edge`` invalidates).  A fresh mutable set is returned
    on every call.
    """
    key = (iid, max_nodes)
    cached = pdg._slice_cache.get(key)
    if cached is None:
        cached = frozenset(_walk_backward(pdg, iid, max_nodes))
        pdg._slice_cache[key] = cached
    return set(cached)


def _walk_backward(pdg: PDG, iid: int, max_nodes: Optional[int]) -> Set[int]:
    seen: Set[int] = {iid}
    stack = [iid]
    while stack:
        node = stack.pop()
        for dep, _kind in pdg.dependencies_of(node):
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
                if max_nodes is not None and len(seen) >= max_nodes:
                    return seen
    return seen


def pm_slice(
    pdg: PDG,
    pm: PMClassification,
    iid: int,
    max_nodes: Optional[int] = None,
) -> Set[int]:
    """Backward slice filtered to PM instructions."""
    return {
        node
        for node in backward_slice(pdg, iid, max_nodes)
        if pm.is_pm_instr(node)
    }


def slice_distances(pdg: PDG, iid: int) -> Dict[int, int]:
    """BFS distance of every slice node from the fault instruction.

    Supports the paper's "complex policy function" that orders candidate
    sequence numbers by slice distance and caps the maximum distance.

    Memoized on the PDG per fault iid — the distance policy recomputes
    the same BFS on every plan request of a multi-round mitigation.  A
    fresh dict is returned on every call.
    """
    cached = pdg._dist_cache.get(iid)
    if cached is None:
        cached = {iid: 0}
        frontier = [iid]
        while frontier:
            nxt = []
            for node in frontier:
                for dep, _kind in pdg.dependencies_of(node):
                    if dep not in cached:
                        cached[dep] = cached[node] + 1
                        nxt.append(dep)
            frontier = nxt
        pdg._dist_cache[iid] = cached
    return dict(cached)
