"""Dynamic dependence recording and dynamic slicing (paper Section 7).

The paper's discussion ("Analysis Accuracy") names dynamic program
slicing [Agrawal & Horgan, PLDI '90] as the future-work remedy for
static-analysis over-approximation, at the cost of heavy runtime
tracking.  This module implements that trade-off so the ablation bench
can quantify both sides:

* :class:`DynamicDependenceRecorder` attaches to a
  :class:`~repro.lang.interp.Machine` as an injection on every
  instruction (:meth:`~DynamicDependenceRecorder.attach`) and shadows
  the execution: register provenance per frame, a last-writer map
  per memory word, call/return linkage, and a last-taken-branch control
  approximation.  Every executed instruction contributes edges
  ``dep -> instr`` to a *dynamic* dependence graph containing only
  dependences that actually happened.
* :func:`dynamic_slice` is reverse reachability over those edges.

Dynamic slices are subsets of the sound static slices (a property the
test suite checks), so feeding them to the reactor yields smaller
candidate lists and fewer reversion attempts — in exchange for the
recording overhead the bench measures.

Control dependence is approximated by the most recent conditional branch
executed in the same activation plus the calling context; this is the
standard lightweight scheme and can over-connect straight-line code that
merely *follows* a branch, but never misses a dependence the reactor
needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.lang.ir import Instr

#: pseudo register key holding the current control dependence
_CTRL = "%ctrl%"


@dataclass
class _ShadowFrame:
    """Provenance mirror of one activation record."""

    #: register name -> iid of the instruction that defined it
    defs: Dict[str, int] = field(default_factory=dict)
    #: destination register awaiting the callee's return value
    ret_dst: Optional[str] = None


class DynamicDependenceRecorder:
    """Shadows an execution, building the dynamic dependence graph."""

    def __init__(self) -> None:
        #: instr iid -> set of iids it dynamically depended on
        self.deps: Dict[int, Set[int]] = {}
        #: memory word -> iid of its last dynamic writer
        self._mem_writer: Dict[int, int] = {}
        #: per-thread shadow stacks, keyed by thread id
        self._stacks: Dict[int, List[_ShadowFrame]] = {}
        #: per-thread iid of a ``ret`` whose value is about to land
        self._pending_ret: Dict[int, int] = {}
        self.instructions_recorded = 0

    def attach(self, machine) -> None:
        """Record every instruction ``machine`` executes from now on.

        The recorder rides the machine's per-instruction injection hook,
        so the machine single-steps while it is attached; a restart's
        fresh machine runs unrecorded unless attached again.
        """
        for instr in machine.module.instructions():
            machine.add_injection(instr.iid, self.on_instr)

    # ------------------------------------------------------------------
    def _sync_stack(self, machine, thread) -> _ShadowFrame:
        """Mirror the thread's frame stack, wiring call/return provenance."""
        stack = self._stacks.setdefault(thread.tid, [])
        # returns: frames popped since we last looked
        while len(stack) > len(thread.frames):
            popped = stack.pop()
            ret_iid = self._pending_ret.pop(thread.tid, None)
            if stack and popped.ret_dst is not None and ret_iid is not None:
                stack[-1].defs[popped.ret_dst] = ret_iid
        # calls: frames pushed since we last looked
        while len(stack) < len(thread.frames):
            depth = len(stack)
            frame = thread.frames[depth]
            shadow = _ShadowFrame(ret_dst=frame.ret_dst)
            if stack:
                call_iid = stack[-1].defs.get("%call%")
                if call_iid is not None:
                    # parameters and control context come from the call
                    for param in frame.func.params:
                        shadow.defs[param] = call_iid
                    shadow.defs[_CTRL] = call_iid
            stack.append(shadow)
        return stack[-1]

    # ------------------------------------------------------------------
    def on_instr(self, machine, thread, instr: Instr) -> None:
        """Record the dependences of one about-to-execute instruction."""
        self.instructions_recorded += 1
        shadow = self._sync_stack(machine, thread)
        frame = thread.frame
        deps: Set[int] = set()

        for reg in instr.uses():
            dep = shadow.defs.get(reg)
            if dep is not None:
                deps.add(dep)
        ctrl = shadow.defs.get(_CTRL)
        if ctrl is not None:
            deps.add(ctrl)

        op = instr.op
        if op == "load":
            addr = frame.regs.get(instr.args[0])
            if addr is not None and addr in self._mem_writer:
                deps.add(self._mem_writer[addr])
        elif op == "store":
            addr = frame.regs.get(instr.args[0])
            if addr is not None:
                self._mem_writer[addr] = instr.iid
        elif op == "alloc":
            pass  # fresh zeroed block: loads before any store have no dep
        elif op == "cbr":
            shadow.defs[_CTRL] = instr.iid
        elif op == "call":
            shadow.defs["%call%"] = instr.iid
        elif op == "ret":
            self._pending_ret[thread.tid] = instr.iid

        if instr.dst is not None:
            shadow.defs[instr.dst] = instr.iid

        if deps:
            self.deps.setdefault(instr.iid, set()).update(deps)

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Forget volatile shadows (frames); memory provenance survives
        for persistent words and is stale-but-harmless for volatile ones."""
        self._stacks.clear()
        self._pending_ret.clear()

    def edge_count(self) -> int:
        """Total dynamic dependence edges recorded."""
        return sum(len(v) for v in self.deps.values())


def dynamic_slice(recorder: DynamicDependenceRecorder, iid: int) -> Set[int]:
    """All instructions that dynamically affected ``iid`` (plus itself)."""
    seen: Set[int] = {iid}
    stack = [iid]
    while stack:
        node = stack.pop()
        for dep in recorder.deps.get(node, ()):
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return seen
