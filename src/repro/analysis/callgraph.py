"""Call graph construction.

PMLang has no function pointers (unlike C), so every edge is direct; the
module still mirrors the paper's pipeline stage: caller/callee maps plus
the call sites the PDG wires parameter and return edges through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.lang.ir import Module


@dataclass
class CallGraph:
    """callers/callees per function plus call-site lists."""

    #: function -> set of functions it calls
    callees: Dict[str, Set[str]] = field(default_factory=dict)
    #: function -> set of functions calling it
    callers: Dict[str, Set[str]] = field(default_factory=dict)
    #: callee function -> list of call-site instruction ids
    call_sites: Dict[str, List[int]] = field(default_factory=dict)


def build_callgraph(module: Module) -> CallGraph:
    """Collect caller/callee relations and call sites for a module."""
    graph = CallGraph()
    for fname in module.functions:
        graph.callees[fname] = set()
        graph.callers.setdefault(fname, set())
        graph.call_sites.setdefault(fname, [])
    for func in module.functions.values():
        for instr in func.instructions():
            if instr.op != "call":
                continue
            target = instr.args[0]
            graph.callees[func.name].add(target)
            graph.callers.setdefault(target, set()).add(func.name)
            graph.call_sites.setdefault(target, []).append(instr.iid)
    return graph
