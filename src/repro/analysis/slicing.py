"""Program slicing over the PDG (Weiser-style backward slices).

The reactor slices the fault instruction and keeps only nodes with
persistent-memory operands (paper Section 4.5); the slice is then joined
against the runtime PM-address trace to find checkpoint entries.  One
BFS gives both the slice and each node's distance from the fault, which
the reactor ranks candidates by.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.analysis.pdg import PDG


def backward_slice(pdg: PDG, iid: int) -> Set[int]:
    """All instructions that may affect ``iid`` (including itself): the
    keys of :func:`slice_distances`."""
    return set(slice_distances(pdg, iid))


def slice_distances(pdg: PDG, iid: int) -> Dict[int, int]:
    """BFS distance of every slice node from the fault instruction, in
    BFS order.

    Memoized on the PDG per fault iid: detector/reactor rounds and the
    purge->rollback fallback re-plan the same fault up to 8x per
    mitigation, and the graph never changes after analysis
    (``add_edge`` invalidates).  A fresh dict is returned on every call.
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
