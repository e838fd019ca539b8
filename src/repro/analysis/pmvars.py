"""PM variable and instruction identification (paper Section 4.1).

Starting from the API points that *create* persistent pointers
(``pm_alloc``, ``pm_realloc``, ``get_root``), the points-to analysis
already computed the transitive closure of everything those pointers can
flow into — including through loads/stores, calls and pointer arithmetic.
This module projects that closure onto:

* **PM registers** — registers that may hold a persistent address, and
* **PM instructions** — instructions that create or access PM: the set the
  instrumentation pass assigns trace GUIDs to and the slicer retains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set, Tuple

from repro.analysis.pointer import PointsToResult
from repro.lang.ir import Instr, Module

#: ops whose first operand is a pointer being dereferenced/persisted
_PTR_ACCESS_OPS = frozenset(
    {"load", "store", "gep", "persist", "flush", "txadd", "free"}
)

#: ops that create persistent pointers outright
_PM_CREATE_OPS = frozenset({"getroot", "setroot"})


@dataclass
class PMClassification:
    """Result of PM variable/instruction identification."""

    #: (func, reg) pairs that may hold a PM address
    pm_registers: Set[Tuple[str, str]] = field(default_factory=set)
    #: instruction ids that create or access PM
    pm_instr_iids: Set[int] = field(default_factory=set)

    def is_pm_instr(self, iid: int) -> bool:
        """True when the instruction creates or accesses persistent memory."""
        return iid in self.pm_instr_iids

def classify_pm(module: Module, points_to: PointsToResult) -> PMClassification:
    """Classify every register and instruction of a module."""
    result = PMClassification()
    for func in module.functions.values():
        seen_regs: Set[str] = set()
        for instr in func.instructions():
            regs = set(instr.uses())
            if instr.dst is not None:
                regs.add(instr.dst)
            for reg in regs - seen_regs:
                if points_to.is_pm_pointer(func.name, reg):
                    result.pm_registers.add((func.name, reg))
                    seen_regs.add(reg)
            if _is_pm_instr(func.name, instr, points_to):
                result.pm_instr_iids.add(instr.iid)
    return result


def _is_pm_instr(fname: str, instr: Instr, points_to: PointsToResult) -> bool:
    op = instr.op
    if op == "alloc":
        return instr.args[1] == "pm"
    if op == "realloc":
        return True
    if op in _PM_CREATE_OPS:
        return True
    if op in _PTR_ACCESS_OPS:
        return points_to.is_pm_pointer(fname, instr.args[0])
    return False
