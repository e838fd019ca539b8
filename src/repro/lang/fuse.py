"""Segment compilation for the PMLang VM.

The table-dispatch interpreter in :mod:`repro.lang.interp` pays a fixed
per-step toll — block/instruction fetch, handler dispatch, trace gating,
index bookkeeping — that dominates the pure-compute workloads the
overhead model (Figure 12) runs through the VM.  This module removes the
toll for straight-line code:

* **Segments** — every maximal run of *fusable* instructions inside a
  basic block (arithmetic, moves, address math, memory ops, persistence,
  transaction and allocation ops, asserts, and the ``br``/``cbr``
  terminators) is compiled once into a single Python closure.  Executing
  the segment is one call, with no per-step dispatch.
* **Segment-local registers** — a register the segment reads or defines
  lives in a Python local, and every read uses the local.  A definition
  is also written to ``frame.regs`` when the register is named (not a
  ``%t`` temp), or when it is a ``%t`` with a use outside the segment;
  a ``%t`` whose every use sits later in the segment is never
  materialised.

Exactness contract (fused execution must be indistinguishable from
per-step table dispatch, which stays in :mod:`repro.lang.interp` as the
trap fallback and as the path for preemption, injections and the
dependence recorder; ``tests/oracles`` pins the equivalence):

* Every register whose first access in the segment is a read is read
  from ``frame.regs`` on entry, before any statement runs.  Those reads
  are the only source of ``KeyError``, and one leaves nothing done: the
  runner's table fallback runs the segment's instructions from its
  start and raises where table dispatch would.
* ``frame.index`` is stored only where something can raise or read it,
  and there it names the instruction at hand: before a ``//`` or ``%``,
  before a handler call, on the out-of-range branch of a load or store
  just before :meth:`Machine._load`/:meth:`Machine._store` (the only
  places those trap), and before a trace flush.  The runner computes
  the committed prefix from it on every exception path, so fault
  attribution (iid, location, stack) and ``steps_executed`` match table
  dispatch to the step.
* A ``ZeroDivisionError`` makes the runner re-execute the ``//`` or
  ``%`` through the table, which performs the exact ``ArithmeticTrap``
  conversion; the segment writes both operands to ``frame.regs`` first.
* Handler-dispatched statements (persist/flush/fence, roots, asserts,
  emits, transactions and allocation) read ``frame.regs`` themselves,
  so every unmaterialised temp they use is written there first.  A
  register a handler defines is read back from ``frame.regs``, which
  cannot raise.  Each stays one step; calls, returns, yields and panics
  stay out of segments.
* Loads and stores of an address in ``[PM_BASE, pool.end)`` run inline,
  trap-free, on the pool dicts the segment binds on entry (the pool
  never rebinds them).
* A traced statement appends its ``(guid, address)`` record straight to
  the attached :class:`~repro.instrument.tracer.PMTrace`'s buffer and
  flushes at the trace's threshold, exactly as ``PMTrace.record`` does,
  so records, their order and every flush point are those of table
  dispatch.  Segments are cached on the module, which every machine
  running it shares, so a segment binds ``Machine.trace``'s buffer and
  threshold when it starts; the trace never rebinds its buffer.
  (Re)finalising or (re)instrumenting a module drops all cached
  segments, so codegen never sees stale GUIDs.
* Every instruction counts toward ``steps_executed`` and the step
  budget; a segment only runs when its full step count fits the
  remaining budget, otherwise the runner falls back to single-stepping
  so ``HangTrap`` fires on exactly the same step as table dispatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.pmem.pool import PM_BASE

#: ops a fused segment may contain; everything else (calls, returns,
#: yields, panics) single-steps via the table
FUSABLE_OPS = frozenset({
    "const", "mov", "binop", "unop", "gep", "load", "store",
    "persist", "flush", "fence", "getroot", "setroot",
    "txbegin", "txadd", "txcommit", "txabort", "alloc", "free", "realloc",
    "assert", "emit", "nop", "br", "cbr",
})

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

_RAW_UNOPS = {"neg": "(-{a})", "not": "(0 if {a} else 1)", "bnot": "(~{a})"}


class Segment:
    """One compiled straight-line run of fusable instructions."""

    __slots__ = ("start", "n_steps", "run", "iids")

    def __init__(self, start: int, n_steps: int, run, iids: Tuple[int, ...]):
        self.start = start
        #: instruction count — the unit the step budget and
        #: ``steps_executed`` are charged in
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
    body: List[str] = []
    emit = body.append
    #: register -> the Python expression holding its value from here on:
    #: a local, or a literal for a constant
    held: Dict[str, str] = {}
    local_names: Dict[str, str] = {}
    #: held registers whose value frame.regs lacks (private temps)
    private: Set[str] = set()
    #: uses of each register by the instructions after the current one
    ahead: Dict[str, int] = {}
    for ins in instrs[start:end]:
        for r in ins.uses():
            ahead[r] = ahead.get(r, 0) + 1
    #: what F.index holds when the next statement runs (``None``: unknown)
    index_now: Optional[int] = start
    ended = False
    traced = False
    pm_access = False

    def local(reg: str) -> str:
        name = local_names.get(reg)
        if name is None:
            name = "r_" + reg if reg.isidentifier() else "t%d" % len(local_names)
            local_names[reg] = name
        return name

    def set_index(i: int) -> None:
        nonlocal index_now
        if index_now != i:
            emit("    F.index = %d" % i)
            index_now = i

    def set_index_in_branch(i: int, indent: str) -> None:
        # a store on one branch only: afterwards F.index is known only if
        # it already held i
        nonlocal index_now
        if index_now != i:
            emit(indent + "F.index = %d" % i)
            index_now = None

    def materialise(reg: str) -> None:
        if reg in private:
            emit("    R[%r] = %s" % (reg, held[reg]))
            private.discard(reg)

    def is_private(reg: str) -> bool:
        return (
            reg.startswith("%t")
            and defs.get(reg, 0) == 1
            and uses.get(reg, 0) == ahead.get(reg, 0)
        )

    def define(reg: str, expr: str, bound: bool = False) -> None:
        """Bind ``reg`` to ``expr``, writing it to frame.regs unless no
        code outside the segment can read it.  ``bound``: ``expr``
        already holds the value (a literal, or the local a load set)."""
        if not bound:
            emit("    %s = %s" % (local(reg), expr))
            expr = local(reg)
        held[reg] = expr
        if is_private(reg):
            private.add(reg)
        else:
            emit("    R[%r] = %s" % (reg, expr))
            private.discard(reg)

    def trace(i: int, guid: str, addr: str) -> None:
        # PMTrace.record, inlined: append, then flush at the threshold
        nonlocal traced
        traced = True
        emit("    if TR is not None and %s >= PM_BASE:" % addr)
        emit("        TB.append((%r, %s))" % (guid, addr))
        emit("        if len(TB) >= TT:")
        set_index_in_branch(i, "            ")
        emit("            TR.flush()")

    # every register whose first access here is a read is read at entry,
    # before anything runs: a KeyError there leaves nothing done, and the
    # table runs the segment from its start, raising where it would
    defined: Set[str] = set()
    for ins in instrs[start:end]:
        for r in ins.uses():
            if r not in defined and r not in held:
                held[r] = local(r)
                emit("    %s = R[%r]" % (held[r], r))
        if ins.dst is not None:
            defined.add(ins.dst)

    for i in range(start, end):
        ins = instrs[i]
        op = ins.op
        for r in ins.uses():
            ahead[r] -= 1
        if op == "const":
            value = ins.args[0]
            define(ins.dst, "(%r)" % value if value < 0 else repr(value),
                   bound=True)
        elif op == "mov":
            define(ins.dst, held[ins.args[0]])
        elif op == "unop":
            opname, a = ins.args
            define(ins.dst, _RAW_UNOPS[opname].format(a=held[a]))
        elif op == "binop":
            opname, a, b = ins.args
            ea, eb = held[a], held[b]
            if opname in ("//", "%"):
                # ZeroDivisionError: the table re-executes i from frame.regs
                materialise(a)
                materialise(b)
                set_index(i)
            define(ins.dst, _RAW_BINOPS[opname].format(a=ea, b=eb))
        elif op == "gep":
            base, offset, index, scale = ins.args
            if index is None:
                expr = "(%s + %d)" % (held[base], offset)
            else:
                expr = "(%s + %d + %s * %d)" % (
                    held[base], offset, held[index], scale)
            define(ins.dst, expr)
            if ins.guid is not None:
                trace(i, ins.guid, held[ins.dst])
        elif op in ("load", "store"):
            operands = [held[r] for r in ins.args]
            p = operands[0]
            if ins.guid is not None:
                trace(i, ins.guid, p)
            ns["I%d" % i] = ins
            pm_access = True
            emit("    if PM_BASE <= %s < PE:" % p)
            if op == "load":
                name = local(ins.dst)
                emit("        %s = C[%s] if %s in C else D.get(%s, 0)"
                     % (name, p, p, p))
                emit("    else:")
                set_index_in_branch(i, "        ")
                emit("        %s = M._load(%s, I%d)" % (name, p, i))
                define(ins.dst, name, bound=True)
            else:
                emit("        C[%s] = %s" % (p, operands[1]))
                emit("    else:")
                set_index_in_branch(i, "        ")
                emit("        M._store(%s, %s, I%d)" % (p, operands[1], i))
        elif op == "br":
            emit("    F.block = %r" % (ins.args[0],))
            emit("    F.index = 0")
            emit("    return")
            ended = True
        elif op == "cbr":
            emit(
                "    F.block = %r if %s else %r"
                % (ins.args[1], held[ins.args[0]], ins.args[2])
            )
            emit("    F.index = 0")
            emit("    return")
            ended = True
        elif op == "nop":
            pass
        else:  # handler-dispatched: it reads its operands from frame.regs
            for r in ins.uses():
                materialise(r)
            set_index(i)
            if ins.guid is not None and op in _TRACE_PTR_OPS:
                trace(i, ins.guid, held[ins.args[0]])
            ns["H%d" % i] = _DISPATCH[op]
            ns["I%d" % i] = ins
            emit("    H%d(M, T, F, I%d)" % (i, i))
            if ins.dst is not None:
                # the handler set dst in frame.regs: the read cannot raise
                name = held[ins.dst] = local(ins.dst)
                private.discard(ins.dst)
                emit("    %s = R[%r]" % (name, ins.dst))
                if ins.guid is not None and op in _TRACE_DST_OPS:
                    trace(i, ins.guid, name)
    if not ended:
        # park F.index on the first un-fused instruction for the runner
        emit("    F.index = %d" % end)

    lines = ["def _seg(M, T, F):"]
    if any(("R[" in ln or "R.get" in ln) for ln in body):
        lines.append("    R = F.regs")
    if traced:
        lines.append("    TR = M.trace")
        lines.append("    if TR is not None:")
        lines.append("        TB, TT = TR._buffer, TR.flush_threshold")
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
