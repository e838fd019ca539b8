"""Inter-procedural Program Dependence Graph (paper Section 4.1, step ❷).

Nodes are instruction ids; an edge ``u -> v`` (stored backward, as
``deps[v] ∋ (u, kind)``) means *v depends on u*.  Edge kinds:

``data``
    register def-use, from reaching definitions
``mem``
    load may read what a store (or zero-initialising alloc) wrote,
    from the points-to footprints
``control``
    instruction executes only if a conditional branch goes a certain way
    (Ferrante et al. control dependence)
``call``
    dependence of a callee instruction on its call sites: parameter flow
    and calling context
``ret``
    a call's result depends on the callee's return instructions

A backward slice is reverse reachability over these edges; the forward
map supports the purge mode's forward-dependency second pass
(Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import FunctionCFG
from repro.analysis.defuse import compute_defuse, is_param_def
from repro.analysis.pointer import TOP, PointsToResult
from repro.lang.ir import Module


@dataclass
class PDG:
    """The dependence graph with backward and forward adjacency."""

    #: v -> set of (u, kind): v depends on u
    deps: Dict[int, Set[Tuple[int, str]]] = field(default_factory=dict)
    #: u -> set of (v, kind): v depends on u
    fwd: Dict[int, Set[Tuple[int, str]]] = field(default_factory=dict)
    #: memoized BFS distance maps keyed by fault iid — the reactor
    #: re-slices the same fault across detector/reactor rounds and the
    #: purge->rollback fallback; the graph is immutable after build, so
    #: add_edge invalidates (see repro.analysis.slicing)
    _dist_cache: Dict[int, Dict[int, int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def add_edge(self, u: int, v: int, kind: str) -> None:
        """Record that instruction ``v`` depends on ``u`` (self-loops dropped)."""
        if u == v:
            return
        if self._dist_cache:
            self._dist_cache.clear()
        self.deps.setdefault(v, set()).add((u, kind))
        self.fwd.setdefault(u, set()).add((v, kind))

    def dependencies_of(self, iid: int) -> Set[Tuple[int, str]]:
        """(dep, kind) pairs this instruction depends on."""
        return self.deps.get(iid, set())

    def dependents_of(self, iid: int) -> Set[Tuple[int, str]]:
        """(dependent, kind) pairs that depend on this instruction."""
        return self.fwd.get(iid, set())

    def edge_count(self) -> int:
        """Total dependence edges in the graph."""
        return sum(len(v) for v in self.deps.values())

    def node_count(self) -> int:
        """Instructions participating in at least one edge."""
        nodes = set(self.deps)
        nodes.update(self.fwd)
        return len(nodes)


def build_pdg(
    module: Module, points_to: PointsToResult, callgraph: CallGraph
) -> PDG:
    """Construct the PDG for a finalized module."""
    pdg = PDG()
    _add_register_data_edges(module, callgraph, pdg)
    _add_memory_edges(module, points_to, pdg)
    _add_control_edges(module, pdg)
    _add_interproc_context_edges(module, callgraph, pdg)
    return pdg


# ----------------------------------------------------------------------
def _add_register_data_edges(module: Module, callgraph: CallGraph, pdg: PDG) -> None:
    for func in module.functions.values():
        defuse = compute_defuse(func)
        for instr in func.instructions():
            for reg in instr.uses():
                for def_id in defuse.reaching_defs(instr.iid, reg):
                    # parameter defs carry call-site dependence, but
                    # _add_interproc_context_edges already links every
                    # callee instruction to every call site — adding the
                    # same "call" edges here was pure duplicate work
                    if not is_param_def(def_id):
                        pdg.add_edge(def_id, instr.iid, "data")
            if instr.op == "call" and instr.dst is not None:
                callee = instr.args[0]
                callee_func = module.functions[callee]
                for ret_iid in (
                    i.iid for i in callee_func.instructions() if i.op == "ret"
                ):
                    pdg.add_edge(ret_iid, instr.iid, "ret")


def _add_memory_edges(module: Module, points_to: PointsToResult, pdg: PDG) -> None:
    # index stores by site: site -> list of (iid, offsets, has_top)
    by_site: Dict[int, List[Tuple[int, Set[int], bool]]] = {}
    for iid, locs in points_to.store_locs.items():
        per_site: Dict[int, Tuple[Set[int], bool]] = {}
        for site, off in locs:
            offsets, has_top = per_site.get(site, (set(), False))
            if off == TOP:
                has_top = True
            else:
                offsets.add(off)
            per_site[site] = (offsets, has_top)
        for site, (offsets, has_top) in per_site.items():
            by_site.setdefault(site, []).append((iid, offsets, has_top))

    for load_iid, locs in points_to.load_locs.items():
        for site, off in locs:
            for store_iid, offsets, has_top in by_site.get(site, ()):
                if off == TOP or has_top or off in offsets:
                    pdg.add_edge(store_iid, load_iid, "mem")


def _add_control_edges(module: Module, pdg: PDG) -> None:
    for func in module.functions.values():
        cfg = FunctionCFG(func)
        cd = cfg.control_dependences()
        for block_label, branch_blocks in cd.items():
            block = func.blocks[block_label]
            for branch_label in branch_blocks:
                branch_instr = func.blocks[branch_label].terminator
                if branch_instr is None:
                    continue
                for instr in block.instrs:
                    pdg.add_edge(branch_instr.iid, instr.iid, "control")


def _add_interproc_context_edges(
    module: Module, callgraph: CallGraph, pdg: PDG
) -> None:
    """Every callee instruction depends on the function's call sites.

    This carries calling context (the caller's branches and data feeding
    the call) into slices of callee instructions; without it a fault deep
    inside a helper would never reach the request handling that led there.
    """
    for fname, func in module.functions.items():
        sites = callgraph.call_sites.get(fname, [])
        if not sites:
            continue
        for instr in func.instructions():
            for site in sites:
                pdg.add_edge(site, instr.iid, "call")
