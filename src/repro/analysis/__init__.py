"""Static analysis: the reproduction of the Arthas analyzer (Section 4.1).

The pipeline mirrors the paper's:

1. :mod:`repro.analysis.pointer` — Andersen-style, field-sensitive
   points-to analysis over allocation sites (the paper uses a
   field-/context-sensitive pointer analysis; ours is field-sensitive and
   context-insensitive, which is sound but may over-approximate).
2. :mod:`repro.analysis.pmvars` — identify *PM variables and
   instructions*: registers whose points-to sets reach persistent
   allocation sites or the pool root, and the loads/stores/persists that
   touch them (the def-use transitive closure of the paper).
3. :mod:`repro.analysis.cfg` + :mod:`repro.analysis.defuse` — control-flow
   graphs, dominators/post-dominators, reaching definitions.
4. :mod:`repro.analysis.pdg` — the inter-procedural Program Dependence
   Graph with data (register + memory) and control edges.
5. :mod:`repro.analysis.slicing` — backward slices of fault instructions,
   the reactor's input.

:func:`analyze_module` runs the whole pipeline and returns an
:class:`AnalysisResult` bundle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.pdg import PDG, build_pdg
from repro.analysis.pointer import PointsToResult, analyze_pointers
from repro.analysis.pmvars import PMClassification, classify_pm
from repro.analysis.slicing import backward_slice
from repro.lang.ir import Module


@dataclass
class AnalysisResult:
    """Everything the Arthas toolchain derives statically from a module."""

    module: Module
    points_to: PointsToResult
    pm: PMClassification
    pdg: PDG
    callgraph: CallGraph
    #: seconds spent in each phase (Table 9's "Static Analysis" row)
    timings: Dict[str, float] = field(default_factory=dict)

    def backward_slice(self, iid: int) -> Set[int]:
        """All instructions that may affect the given instruction."""
        return backward_slice(self.pdg, iid)


def analyze_module(module: Module) -> AnalysisResult:
    """Run the full analyzer pipeline on a finalized module."""
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    callgraph = build_callgraph(module)
    timings["callgraph"] = time.perf_counter() - start

    start = time.perf_counter()
    points_to = analyze_pointers(module)
    timings["pointer"] = time.perf_counter() - start

    start = time.perf_counter()
    pm = classify_pm(module, points_to)
    timings["pmvars"] = time.perf_counter() - start

    start = time.perf_counter()
    pdg = build_pdg(module, points_to, callgraph)
    timings["pdg"] = time.perf_counter() - start

    return AnalysisResult(
        module=module,
        points_to=points_to,
        pm=pm,
        pdg=pdg,
        callgraph=callgraph,
        timings=timings,
    )


__all__ = [
    "AnalysisResult",
    "analyze_module",
    "analyze_pointers",
    "classify_pm",
    "build_pdg",
    "build_callgraph",
    "backward_slice",
    "PDG",
    "CallGraph",
    "PointsToResult",
    "PMClassification",
]
