"""The seed instrumentation pass: a tracing call at every PM instruction.

:func:`repro.instrument.passes.instrument_module` leaves a gep without
one when the traced readers of its result record the same addresses.
Here every PM gep records its own, so a trace run under this pass holds
the addresses each gep's carriers must reproduce.
"""

import time
from typing import Tuple

from repro.analysis.pmvars import PMClassification
from repro.instrument.guids import GuidMap
from repro.lang.fuse import invalidate
from repro.lang.ir import Module


def seed_instrument_module(
    module: Module, pm: PMClassification
) -> Tuple[GuidMap, float]:
    """Give every PM instruction a GUID and a tracing call; returns
    (map, seconds taken), as ``instrument_module`` does."""
    start = time.perf_counter()
    guid_map = GuidMap(module.name)
    for instr in module.instructions():
        if pm.is_pm_instr(instr.iid):
            instr.guid = guid_map.add(instr)
    invalidate(module)
    return guid_map, time.perf_counter() - start
