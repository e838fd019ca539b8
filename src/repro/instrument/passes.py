"""The tracing-instrumentation pass.

Gives every PM instruction (as classified by
:mod:`repro.analysis.pmvars`) a GUID in the metadata map, and a tracing
call to every one of them but the *covered* geps.  The interpreter
treats a non-None ``Instr.guid`` as "a tracing call was inlined before
this instruction" and reports the instruction's runtime PM address to
the attached tracer — the lightweight scheme the paper uses instead of
full dynamic taint tracking.

A gep computes an address and touches no memory.  When its result is a
``%t`` temp defined once and read only as the pointer operand of traced
instructions, each of those readers records the same address, so the
gep's own record would repeat theirs: it gets no tracing call, and the
map lists those readers as its *carriers* (:meth:`GuidMap.carriers`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.analysis.pmvars import PMClassification
from repro.instrument.guids import GuidMap
from repro.lang.fuse import invalidate as _invalidate_fused
from repro.lang.ir import Function, Instr, Module

#: ops whose tracing call records their pointer operand, ``args[0]``
#: (``repro.lang.interp._TRACE_PTR_OPS``, which imports this package)
_CARRIER_OPS = frozenset({"load", "store", "persist", "flush", "txadd", "free"})


def instrument_module(
    module: Module, pm: PMClassification
) -> Tuple[GuidMap, float]:
    """Assign GUIDs to all PM instructions and tracing calls to all but
    the covered geps; returns (map, seconds taken).

    The duration feeds Table 9's "Instrumentation" row.
    """
    start = time.perf_counter()
    guid_map = GuidMap(module.name)
    for instr in module.instructions():
        if pm.is_pm_instr(instr.iid):
            instr.guid = guid_map.add(instr)
    for func in module.functions.values():
        for gep, readers in _covered_geps(func, pm):
            gep.guid = None
            guid_map.cover(gep.iid, [r.guid for r in readers])
    _invalidate_fused(module)  # GUIDs changed: compiled trace hooks are stale
    return guid_map, time.perf_counter() - start


def _covered_geps(
    func: Function, pm: PMClassification
) -> List[Tuple[Instr, List[Instr]]]:
    """PM geps whose result is a ``%t`` temp defined once and read only
    as the pointer operand of PM carrier ops, each with those readers."""
    instrs = list(func.instructions())
    geps = {
        i.dst: i for i in instrs
        if i.op == "gep" and i.dst.startswith("%t") and pm.is_pm_instr(i.iid)
    }
    # candidate temp -> its readers so far; None once it escapes
    readers: Dict[str, Optional[List[Instr]]] = {reg: [] for reg in geps}
    for instr in instrs:
        if instr.dst in readers and instr is not geps[instr.dst]:
            readers[instr.dst] = None  # defined twice
        # a carrier op's pointer operand is the first register it reads
        for pos, reg in enumerate(instr.uses()):
            if readers.get(reg) is None:
                continue
            if pos == 0 and instr.op in _CARRIER_OPS and pm.is_pm_instr(instr.iid):
                readers[reg].append(instr)
            else:
                readers[reg] = None
    return [(geps[reg], users) for reg, users in readers.items() if users]
