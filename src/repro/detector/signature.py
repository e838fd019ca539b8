"""Failure signatures and the hard-fault similarity heuristic.

The paper's detector retrieves the faulting instruction, exit code and
stack trace and flags a *potential hard failure* when a new failure looks
like a previously recorded one (same exit code / fault instruction /
"loosely the same" stack).  The heuristic is deliberately imperfect —
false alarms are pruned later by the reactor (an empty reversion plan
means "not a PM fault; just restart").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.lang.interp import FaultInfo

#: innermost stack frames a signature keeps
STACK_DEPTH = 3


@dataclass(frozen=True)
class FailureSignature:
    """What the detector remembers about one failure."""

    kind: str
    fault_iid: int
    location: str
    #: innermost function names, outermost first (truncated stack)
    stack_funcs: Tuple[str, ...] = ()

    @classmethod
    def from_fault(cls, fault: FaultInfo) -> "FailureSignature":
        funcs = tuple(loc.split(":")[0] for loc in fault.stack[-STACK_DEPTH:])
        return cls(
            kind=fault.kind,
            fault_iid=fault.iid,
            location=fault.location,
            stack_funcs=funcs,
        )


def signatures_similar(a: FailureSignature, b: FailureSignature) -> bool:
    """Loose similarity, mirroring the paper's "e.g., having the same exit
    code, fault instruction, loosely the same stack trace".

    Failure *kind* plays the role of the exit code; a matching kind makes
    two failures similar.  The heuristic is deliberately permissive —
    false alarms cost nothing because the reactor prunes them (an empty
    reversion plan leads to a plain restart).
    """
    return a.kind == b.kind
