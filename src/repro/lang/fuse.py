"""Superinstruction/trace compilation for the PMLang VM.

The table-dispatch interpreter in :mod:`repro.lang.interp` pays a fixed
per-step toll — block/instruction fetch, handler dispatch, trace gating,
index bookkeeping — that dominates the pure-compute workloads the
overhead model (Figure 12) runs through the VM.  This module removes the
toll for straight-line code:

* **Segments** — every maximal run of *fusable* instructions inside a
  basic block (arithmetic, moves, address math, memory ops, persistence
  ops, asserts, and the ``br``/``cbr`` terminators) is compiled once
  into a single Python closure.  Executing the segment is one call: the
  closure binds ``frame.regs`` to a local and runs the instructions as
  consecutive statements, with no per-step dispatch.
* **Superinstructions** — inside a segment, a compiler temporary
  (``%tN``) that is defined once and consumed exactly once by the next
  instruction is inlined into its consumer, fusing the hottest opcode
  pairs and triples (``const``+``binop``, ``binop``+``binop``,
  ``binop``+``cbr``, ``gep`` chains) into one expression.  The temp is
  never materialised in the register file.

Exactness contract (fused execution must be indistinguishable from
per-step table dispatch, which stays in :mod:`repro.lang.interp` as the
trap fallback and as the path for preemption, injections and the
dependence recorder; ``tests/oracles`` pins the equivalence):

* Instructions that can trap (``load``/``store``, and every
  handler-dispatched op) always execute with ``frame.index`` pointing at
  themselves, so fault attribution (iid, location, stack) is identical.
  They are therefore never fusion *consumers*.
* Loads and stores of an address in ``[PM_BASE, pool.end)`` run
  inline, trap-free, on the pool dicts the segment binds on entry (the
  pool never rebinds them); any other address goes through
  :meth:`Machine._load`/:meth:`Machine._store`, the only places they
  trap.
* Raw-coded statements can only raise ``KeyError`` (unset register) or
  ``ZeroDivisionError`` (``//``/``%``).  The runner then re-executes the
  faulting instruction through the table path, which performs the exact
  error conversion (``ReproError`` / ``ArithmeticTrap``) table dispatch
  would; completed prefix steps are committed first, so
  ``steps_executed`` matches to the step.
* Instructions carrying a trace GUID keep their trace hooks, compiled
  inline and gated on an attached tracer; GUID-carrying instructions
  never participate in inlining.  (Re)finalising or (re)instrumenting a
  module drops all cached segments, so codegen never sees stale GUIDs.
* Elided instructions still count toward ``steps_executed`` and the
  step budget; a segment only runs when its full step count fits the
  remaining budget, otherwise the runner falls back to single-stepping
  so ``HangTrap`` fires on exactly the same step as table dispatch.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.pmem.pool import PM_BASE

#: ops a fused segment may contain; everything else (calls, returns,
#: allocation, transactions, yields, panics) single-steps via the table
FUSABLE_OPS = frozenset({
    "const", "mov", "binop", "unop", "gep", "load", "store",
    "persist", "flush", "fence", "getroot", "setroot",
    "assert", "emit", "nop", "br", "cbr",
})

#: pure producers whose single-use %t results may be inlined (``//`` and
#: ``%`` are excluded at the use site: they can raise)
_ELIDABLE_PRODUCERS = frozenset({"const", "mov", "unop", "binop", "gep"})

#: raw-coded, trap-free consumers able to absorb an inlined operand
#: expression; load/store are deliberately absent so every trapping
#: statement owns its own ``frame.index`` (exact fault attribution)
_EXPR_CONSUMERS = frozenset({"mov", "binop", "unop", "gep", "cbr"})

#: opname -> raw Python expression template (matches _BINOP_FUNCS:
#: comparisons produce 0/1, shift counts mask to 63)
_RAW_BINOPS = {
    "+": "({a} + {b})",
    "-": "({a} - {b})",
    "*": "({a} * {b})",
    "//": "({a} // {b})",
    "%": "({a} % {b})",
    "<<": "({a} << ({b} & 63))",
    ">>": "({a} >> ({b} & 63))",
    "&": "({a} & {b})",
    "|": "({a} | {b})",
    "^": "({a} ^ {b})",
    "==": "(1 if {a} == {b} else 0)",
    "!=": "(1 if {a} != {b} else 0)",
    "<": "(1 if {a} < {b} else 0)",
    "<=": "(1 if {a} <= {b} else 0)",
    ">": "(1 if {a} > {b} else 0)",
    ">=": "(1 if {a} >= {b} else 0)",
}


class Segment:
    """One compiled straight-line run of fusable instructions."""

    __slots__ = ("start", "n_steps", "run", "iids")

    def __init__(self, start: int, n_steps: int, run, iids: Tuple[int, ...]):
        self.start = start
        #: original instruction count, elided temps included — the unit
        #: the step budget and ``steps_executed`` are charged in
        self.n_steps = n_steps
        #: ``run(machine, thread, frame)`` executes the whole segment
        self.run = run
        self.iids = iids


def invalidate(module) -> None:
    """Drop every cached segment (module re-finalised or re-instrumented)."""
    for func in module.functions.values():
        for block in func.blocks.values():
            block._fused_segs = None


def compile_block_segments(func, block) -> Dict[int, "Segment"]:
    """Build and cache the start-index -> :class:`Segment` map for one block."""
    segs: Dict[int, Segment] = {}
    instrs = block.instrs
    counts = _temp_counts(func)
    i, n = 0, len(instrs)
    while i < n:
        if instrs[i].op in FUSABLE_OPS:
            j = i
            while j < n and instrs[j].op in FUSABLE_OPS:
                j += 1
            segs[i] = _compile_segment(func, block, i, j, counts)
            i = j
        else:
            i += 1
    block._fused_segs = segs
    return segs


def _temp_counts(func) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Function-wide (definition count, use count) per register name."""
    defs: Dict[str, int] = {}
    uses: Dict[str, int] = {}
    for p in func.params:
        defs[p] = defs.get(p, 0) + 1
    for ins in func.instructions():
        if ins.dst is not None:
            defs[ins.dst] = defs.get(ins.dst, 0) + 1
        for r in ins.uses():
            uses[r] = uses.get(r, 0) + 1
    return defs, uses


def _compile_segment(func, block, start: int, end: int, counts) -> Segment:
    # deferred import: interp imports this module at load time
    from repro.lang.interp import _DISPATCH, _TRACE_DST_OPS, _TRACE_PTR_OPS

    defs, uses = counts
    instrs = block.instrs
    ns: Dict[str, object] = {"PM_BASE": PM_BASE}
    body: list = []
    emit = body.append
    #: (dst, expr, chain-start index) of an elided producer awaiting its
    #: consumer — at most one, always consumed by the very next instr
    pending: Optional[Tuple[str, str, Optional[int]]] = None
    #: what F.index holds when the next statement runs (start on entry)
    runtime_index = start
    ended = False
    traced = False
    pm_access = False

    def use(name: str) -> Tuple[str, Optional[int]]:
        nonlocal pending
        if pending is not None and pending[0] == name:
            _dst, expr, first = pending
            pending = None
            return expr, first
        return "R[%r]" % (name,), None

    def set_index(idx: int) -> None:
        nonlocal runtime_index
        if runtime_index != idx:
            emit("    F.index = %d" % idx)
            runtime_index = idx

    def value_expr(ins) -> Tuple[str, Optional[int]]:
        op = ins.op
        if op == "const":
            return repr(ins.args[0]), None
        if op == "mov":
            return use(ins.args[0])
        if op == "unop":
            opname, a = ins.args
            e, first = use(a)
            if opname == "neg":
                return "(-%s)" % e, first
            if opname == "not":
                return "(0 if %s else 1)" % e, first
            return "(~%s)" % e, first
        if op == "binop":
            opname, a, b = ins.args
            ea, fa = use(a)
            eb, fb = use(b)
            expr = _RAW_BINOPS[opname].format(a=ea, b=eb)
            return expr, fa if fa is not None else fb
        # gep
        base, offset, index, scale = ins.args
        eb, first = use(base)
        if index is None:
            return "(%s + %d)" % (eb, offset), first
        ei, fi = use(index)
        if first is None:
            first = fi
        return "(%s + %d + %s * %d)" % (eb, offset, ei, scale), first

    def trace_reg(ins, name: str) -> None:
        # mirrors Machine._trace_before/_trace_after: regs.get, PM gate
        nonlocal traced
        traced = True
        emit("    if W is not None:")
        emit("        _a = R.get(%r)" % (name,))
        emit("        if _a is not None and _a >= PM_BASE:")
        emit("            W(%r, _a)" % (ins.guid,))

    for i in range(start, end):
        ins = instrs[i]
        op = ins.op
        if (
            i + 1 < end
            and op in _ELIDABLE_PRODUCERS
            and not (op == "binop" and ins.args[0] in ("//", "%"))
            and ins.dst is not None
            and ins.dst.startswith("%t")
            and defs.get(ins.dst, 0) == 1
            and uses.get(ins.dst, 0) == 1
            and ins.guid is None
            and instrs[i + 1].guid is None
            and instrs[i + 1].op in _EXPR_CONSUMERS
            and instrs[i + 1].uses().count(ins.dst) == 1
        ):
            expr, first = value_expr(ins)
            pending = (ins.dst, expr, first if first is not None else i)
            continue
        if op == "const":
            emit("    R[%r] = %s" % (ins.dst, repr(ins.args[0])))
        elif op in ("mov", "unop", "binop", "gep"):
            expr, first = value_expr(ins)
            set_index(first if first is not None else i)
            emit("    R[%r] = %s" % (ins.dst, expr))
            if op == "gep" and ins.guid is not None:
                trace_reg(ins, ins.dst)
        elif op in ("load", "store"):
            set_index(i)
            if ins.guid is not None:
                trace_reg(ins, ins.args[0])
            ns["I%d" % i] = ins
            pm_access = True
            emit("    _p = R[%r]" % (ins.args[0],))
            emit("    if PM_BASE <= _p < PE:")
            if op == "load":
                emit("        R[%r] = C[_p] if _p in C else D.get(_p, 0)"
                     % (ins.dst,))
                emit("    else:")
                emit("        R[%r] = M._load(_p, I%d)" % (ins.dst, i))
            else:
                emit("        C[_p] = R[%r]" % (ins.args[1],))
                emit("    else:")
                emit("        M._store(_p, R[%r], I%d)" % (ins.args[1], i))
        elif op == "br":
            emit("    F.block = %r" % (ins.args[0],))
            emit("    F.index = 0")
            emit("    return")
            ended = True
        elif op == "cbr":
            ec, first = use(ins.args[0])
            set_index(first if first is not None else i)
            emit(
                "    F.block = %r if %s else %r"
                % (ins.args[1], ec, ins.args[2])
            )
            emit("    F.index = 0")
            emit("    return")
            ended = True
        elif op == "nop":
            pass
        else:  # handler-dispatched: persist/flush/fence/roots/assert/emit
            set_index(i)
            if ins.guid is not None and op in _TRACE_PTR_OPS:
                trace_reg(ins, ins.args[0])
            ns["H%d" % i] = _DISPATCH[op]
            ns["I%d" % i] = ins
            emit("    H%d(M, T, F, I%d)" % (i, i))
            if ins.guid is not None and op in _TRACE_DST_OPS and ins.dst is not None:
                trace_reg(ins, ins.dst)
    if not ended:
        # park F.index on the first un-fused instruction for the runner
        emit("    F.index = %d" % end)

    lines = ["def _seg(M, T, F):"]
    if any(("R[" in ln or "R.get" in ln) for ln in body):
        lines.append("    R = F.regs")
    if traced:
        lines.append("    W = M.tracer")
    if pm_access:
        lines.append("    P = M.pool")
        lines.append("    C, D, PE = P._cache, P._durable, P.end")
    lines.extend(body)
    src = "\n".join(lines) + "\n"
    code = compile(
        src, "<fused %s:%s:%d>" % (func.name, block.label, start), "exec"
    )
    exec(code, ns)
    return Segment(
        start, end - start, ns["_seg"],
        tuple(ins.iid for ins in instrs[start:end]),
    )
