"""The fused VM vs the table-dispatch oracle.

:class:`Machine` compiles straight-line runs of fusable opcodes into
Python closures that keep registers in Python locals and append trace
records to the attached trace's buffer inline;
``tests.oracles.TableMachine`` single-steps every instruction through
the per-step dict-dispatch table and ``PMTrace.record``.  The two must
be indistinguishable from outside: identical results, identical
``steps_executed``, identical fault attribution (trap type, iid, step of
occurrence), identical ``HangTrap`` budget accounting, identical trace
records and flush points — across compute kernels, trap programs,
transaction and allocation statements, seeded thread races, injections
and all twelve real fault experiments.  A timing pin keeps the reason
the fused path exists: it must stay well ahead of table dispatch.
"""

import time

import pytest

from repro.errors import (
    ArithmeticTrap,
    HangTrap,
    InjectedCrash,
    OutOfPMTrap,
    ReproError,
    SegfaultTrap,
    TransactionError,
)
from repro.harness.experiment import run_experiment
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine
from repro.pmem.pool import PM_BASE
from tests.oracles import TableMachine

#: machine class per VM path under comparison
VMS = {"fused": Machine, "table": TableMachine}

FIDS = [f"f{i}" for i in range(1, 13)]

_SPIN_SRC = """
def spin(n):
    s = 0
    for i in range(n):
        s = s + i * 3
        s = s ^ (i << 1)
        if s > 1000000:
            s = s % 65536
    return s
"""


def _run_both(src, fname, *args, step_budget=None):
    module = compile_module("t", src)
    outcomes = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        result = machine.call(fname, *args, step_budget=step_budget)
        outcomes[engine] = (result, machine.steps_executed)
    return outcomes


def _trap_both(src, fname, trap_cls, *args):
    """Both engines trap identically: kind, iid and step of occurrence."""
    return _trap_both_on(compile_module("t", src), fname, trap_cls, *args)


def _trap_both_on(module, fname, trap_cls, *args):
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        with pytest.raises(trap_cls):
            machine.call(fname, *args)
        fault = machine.last_fault
        assert fault is not None, engine
        observed[engine] = (fault.kind, fault.iid, machine.steps_executed)
    assert observed["table"] == observed["fused"], observed
    return observed["fused"]


# ----------------------------------------------------------------------
# result + step parity
# ----------------------------------------------------------------------
def test_result_and_step_parity_on_compute_loop():
    outcomes = _run_both(_SPIN_SRC, "spin", 3000)
    assert outcomes["table"] == outcomes["fused"]
    assert outcomes["fused"][1] > 3000  # actually ran the loop


def test_parity_with_pm_loads_and_stores():
    src = """
def f(n):
    p = pm_alloc(8)
    s = 0
    for i in range(n):
        p[i % 8] = s + i
        persist(p + (i % 8), 1)
        s = s + p[i % 8]
    return s
"""
    outcomes = _run_both(src, "f", 200)
    assert outcomes["table"] == outcomes["fused"]


def test_parity_across_calls_and_branch_mix():
    src = """
def helper(a, b):
    if a > b:
        return a - b
    return b - a

def f(n):
    s = 0
    for i in range(n):
        s = s + helper(i, s % 97)
    return s
"""
    outcomes = _run_both(src, "f", 150)
    assert outcomes["table"] == outcomes["fused"]


# ----------------------------------------------------------------------
# exact fault attribution inside fused segments
# ----------------------------------------------------------------------
def test_segfault_in_fused_chain_attributes_the_load():
    # const + gep + load all sit in one fused segment; the trap must
    # carry the *load*'s iid and fire on the same step as the oracle
    src = "def f():\n    p = 12345\n    return p[2]\n"
    kind, _iid, _steps = _trap_both(src, "f", SegfaultTrap)
    assert kind == "segfault"


def test_store_segfault_parity():
    src = "def f():\n    p = 999999999\n    p[0] = 7\n    return 0\n"
    _trap_both(src, "f", SegfaultTrap)


def test_division_by_zero_mid_loop_parity():
    # the ZeroDivisionError raised by raw-coded arithmetic falls back to
    # table re-execution for exact ArithmeticTrap conversion
    src = """
def f(a):
    s = 0
    for i in range(5):
        s = s + 10 // a
    return s
"""
    _trap_both(src, "f", ArithmeticTrap, 0)


def test_division_by_zero_on_segment_locals_parity():
    # both operands of the division are segment locals (the constant and
    # a - a): they must reach frame.regs before the table re-executes it
    src = """
def f(a):
    s = 0
    for i in range(5):
        s = s + 10 // (a - a)
    return s
"""
    _trap_both(src, "f", ArithmeticTrap, 3)


_UNSET_SRC = """
def late(c):
    if c:
        x = 1
    y = c + 2
    z = y * 3 + x
    return z

def late_store(c, a):
    if c:
        x = 1
    p = a + 0
    p[2] = x
    return 0
"""


@pytest.mark.parametrize("fname, args", [
    ("late", (0,)), ("late_store", (0, PM_BASE + 8)),
])
def test_read_of_unset_register_parity(fname, args):
    # a segment reads its entry registers before any statement, so an
    # unset one falls back to the table from the segment's start: same
    # error, same steps, and the trace records of the instructions ahead
    # of the faulting one made once (late_store's gep and store)
    module = compile_module("t", _UNSET_SRC)
    for instr in module.instructions():
        instr.guid = f"g{instr.iid}"
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        machine.trace = PMTrace()
        with pytest.raises(ReproError) as info:
            machine.call(fname, *args)
        observed[engine] = (
            type(info.value), str(info.value), machine.steps_executed,
            list(machine.trace._buffer),
        )
    assert observed["table"] == observed["fused"]
    assert "read of unset register 'x'" in observed["fused"][1]
    if fname == "late_store":
        assert observed["fused"][3][-1] == (
            next(i.guid for i in module.instructions() if i.op == "store"),
            PM_BASE + 10,
        )


# ----------------------------------------------------------------------
# PM word access at the pool's edges: fused segments take the in-pool
# path inline, the oracle checks through pool.contains/read/write
# ----------------------------------------------------------------------
_EDGE_SRC = """
def load_at(a):
    p = a + 0
    v = p[0]
    return v + 1

def store_at(a, x):
    p = a + 0
    p[0] = x
    return x + 1

def store_persist_load(a, x):
    p = a + 0
    p[0] = x
    persist(p, 1)
    v = p[0]
    return v + 1
"""


def _edge_outcome(cls, module, fname, *args):
    """Result or trap, steps and pool state of one call on a fresh
    machine whose last pool word holds a durable 41."""
    machine = cls(module)
    last = machine.pool.end - 1
    machine.pool.write(last, 41)
    machine.pool.persist(last, 1)
    try:
        result = ("ok", machine.call(fname, *args))
    except SegfaultTrap:
        fault = machine.last_fault
        result = ("trap", fault.kind, fault.iid, fault.location, fault.message)
    return (
        result, machine.steps_executed, machine.pool.durable_items(),
        dict(machine.pool._cache),
    )


def _segment_holding(module, fname, op):
    """The compiled segment of ``fname`` that contains its ``op``."""
    func = module.functions[fname]
    iid = next(i.iid for i in func.instructions() if i.op == op)
    segs = [
        seg for block in func.blocks.values()
        for seg in (block._fused_segs or {}).values() if iid in seg.iids
    ]
    assert segs, f"{fname}'s {op} ran outside a fused segment"
    return segs[0]


@pytest.mark.parametrize("where", ["last", "past-end", "below-base", "null"])
@pytest.mark.parametrize("fname", ["load_at", "store_at"])
def test_pm_access_at_pool_edges_parity(fname, where):
    module = compile_module("t", _EDGE_SRC)
    end = Machine(module).pool.end
    addr = {
        "last": end - 1, "past-end": end, "below-base": PM_BASE - 1,
        "null": 0,
    }[where]
    args = (addr,) if fname == "load_at" else (addr, 7)
    observed = {
        engine: _edge_outcome(cls, module, fname, *args)
        for engine, cls in VMS.items()
    }
    assert observed["table"] == observed["fused"], observed
    _segment_holding(module, fname, "load" if fname == "load_at" else "store")
    kind = observed["fused"][0][0]
    assert kind == ("ok" if where == "last" else "trap")
    if fname == "load_at" and where == "last":
        assert observed["fused"][0] == ("ok", 42)


def test_store_persist_load_in_one_segment_parity():
    module = compile_module("t", _EDGE_SRC)
    addr = PM_BASE + 37
    observed = {
        engine: _edge_outcome(cls, module, "store_persist_load", addr, 9)
        for engine, cls in VMS.items()
    }
    assert observed["table"] == observed["fused"], observed
    store = _segment_holding(module, "store_persist_load", "store")
    assert store is _segment_holding(module, "store_persist_load", "load")
    result, _steps, durable, cache = observed["fused"]
    assert result == ("ok", 10)
    assert durable[addr] == 9 and addr not in cache


# ----------------------------------------------------------------------
# budget accounting: HangTrap on exactly the same step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [7, 23, 50, 101])
def test_hang_budget_parity(budget):
    module = compile_module("t", _SPIN_SRC)
    steps = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        with pytest.raises(HangTrap):
            machine.call("spin", 10_000, step_budget=budget)
        steps[engine] = machine.steps_executed
    assert steps["table"] == steps["fused"]


# ----------------------------------------------------------------------
# handler statements inside segments: transactions and allocation run as
# one step each, mid-segment, with the table's fault attribution
# ----------------------------------------------------------------------
_HANDLER_SRC = """
def txadd_past_end(a):
    p = a + 0
    tx_begin()
    q = p + 0
    tx_add(q, 2)
    p[0] = 1
    tx_commit()
    return 0

def alloc_until_full():
    n = 0
    while 1:
        p = pm_alloc(4096)
        p[0] = n
        n = n + 1
    return n

def bad_free():
    p = pm_alloc(4)
    p[0] = 3
    pm_free(p + 1)
    return p[0]

def txadd_outside_tx():
    p = pm_alloc(4)
    q = p + 1
    tx_add(q, 1)
    p[0] = 1
    return 0

def commit_outside_tx():
    p = pm_alloc(2)
    p[0] = 5
    tx_commit()
    return 1

def setup():
    return pm_alloc(4)

def tx_forever(p):
    i = 0
    while 1:
        tx_begin()
        tx_add(p, 2)
        p[0] = i
        p[1] = i * 2
        tx_commit()
        i = i + 1
    return i

def mixed(n):
    p = pm_alloc(2)
    s = 0
    for i in range(n):
        tx_begin()
        tx_add(p, 2)
        p[0] = p[0] + i
        if i % 3 == 0:
            tx_abort()
        else:
            tx_commit()
        q = pm_realloc(p, 2 + i % 4)
        p = q
        v = valloc(2)
        v[1] = i
        s = s + v[1] + p[0]
        vfree(v)
    pm_free(p)
    return s
"""


@pytest.mark.parametrize("fname, op, trap_cls, kind", [
    ("txadd_past_end", "txadd", SegfaultTrap, "segfault"),
    ("alloc_until_full", "alloc", OutOfPMTrap, "oom-pm"),
    ("bad_free", "free", SegfaultTrap, "segfault"),
    ("txadd_outside_tx", "txadd", SegfaultTrap, "segfault"),
])
def test_handler_statement_trap_parity(fname, op, trap_cls, kind):
    module = compile_module("t", _HANDLER_SRC)
    args = (Machine(module).pool.end,) if fname == "txadd_past_end" else ()
    observed_kind, iid, _steps = _trap_both_on(module, fname, trap_cls, *args)
    assert observed_kind == kind
    assert module.instr(iid).op == op
    seg = _segment_holding(module, fname, op)
    # the faulting statement sits mid-segment, not at either end
    assert seg.iids[0] != iid != seg.iids[-1]


def test_non_trap_error_from_a_handler_statement_parity():
    # tx_commit outside a transaction raises the host's TransactionError,
    # not a trap: same error, same steps, no fault recorded
    module = compile_module("t", _HANDLER_SRC)
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        with pytest.raises(TransactionError) as info:
            machine.call("commit_outside_tx")
        observed[engine] = (
            str(info.value), machine.steps_executed, machine.last_fault,
        )
    assert observed["table"] == observed["fused"]
    assert observed["fused"][2] is None
    _segment_holding(module, "commit_outside_tx", "txcommit")


@pytest.mark.parametrize("budget", [7, 23, 50, 101])
def test_hang_budget_parity_with_a_transaction_per_iteration(budget):
    module = compile_module("t", _HANDLER_SRC)
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        p = machine.call("setup")
        before = machine.steps_executed
        with pytest.raises(HangTrap):
            machine.call("tx_forever", p, step_budget=budget)
        observed[engine] = (
            machine.steps_executed - before, machine.last_fault,
            machine.pool.durable_items(), dict(machine.pool._cache),
        )
    assert observed["table"] == observed["fused"]
    assert observed["fused"][0] == budget + 1
    _segment_holding(module, "tx_forever", "txbegin")


def test_alloc_realloc_free_and_abort_parity():
    module = compile_module("t", _HANDLER_SRC)
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        result = machine.call("mixed", 40)
        observed[engine] = (
            result, machine.steps_executed, machine.pool.durable_items(),
            dict(machine.pool._cache), machine.vmem,
        )
    assert observed["table"] == observed["fused"]
    for op in ("txabort", "realloc", "alloc", "free"):
        _segment_holding(module, "mixed", op)


# ----------------------------------------------------------------------
# traces: segments append to the attached PMTrace's buffer inline; the
# table path calls PMTrace.record.  Records, their order, every flush
# point and the durable index must agree.
# ----------------------------------------------------------------------
_TRACE_SRC = _EDGE_SRC + _HANDLER_SRC + """
def build(n):
    head = 0
    for i in range(n):
        node = pm_alloc(3)
        tx_begin()
        tx_add(node, 3)
        node[0] = i
        node[1] = head
        node[2] = i * 7
        tx_commit()
        persist(node, 3)
        head = node
    return head

def walk(head):
    s = 0
    while head != 0:
        s = s + head[0] + head[2]
        head = head[1]
    return s

def main(n):
    head = build(n)
    return walk(head) + mixed(n)
"""


class _FlushLog(PMTrace):
    """A trace that logs its length at every flush: the flush points.
    With ``fail_at``, that flush raises instead."""

    def __init__(self, flush_threshold, fail_at=None):
        super().__init__(flush_threshold=flush_threshold)
        self.flush_points = []
        self.fail_at = fail_at

    def flush(self):
        self.flush_points.append(len(self))
        if len(self.flush_points) == self.fail_at:
            raise RuntimeError("flush failed")
        super().flush()


def _traced_module():
    """Every instruction carries a GUID, so every PM address is traced."""
    module = compile_module("t", _TRACE_SRC)
    for instr in module.instructions():
        instr.guid = f"g{instr.iid}"
    return module


def _traced_outcome(machine, trace, fname, *args):
    capture = trace.mark()
    try:
        result = ("ok", machine.call(fname, *args))
    except SegfaultTrap:
        result = ("trap", machine.last_fault)
    buffered = list(trace._buffer)
    emitted = len(trace)
    trace.flush()
    records = list(trace.since(capture))
    index = {
        guid: list(trace.addresses_for_guid(guid))
        for guid in dict.fromkeys(g for g, _a in trace.pairs())
    }
    return (
        result, machine.steps_executed, records, buffered, emitted,
        trace.pairs(), index, trace.flush_points,
    )


@pytest.mark.parametrize("threshold", [1, 5, 256])
def test_trace_parity_with_flushes_inside_segments(threshold):
    module = _traced_module()
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        trace = _FlushLog(threshold)
        machine.trace = trace
        observed[engine] = _traced_outcome(machine, trace, "main", 12)
    assert observed["table"] == observed["fused"]
    _result, _steps, records, buffered, emitted, pairs, _index, flushes = (
        observed["fused"]
    )
    assert len(records) > 200 and emitted == len(records)
    assert len(buffered) < threshold
    if threshold < 256:
        assert len(flushes) > len(records) // threshold
    _segment_holding(module, "build", "txadd")


@pytest.mark.parametrize("fail_at", [2, 7, 30])
def test_flush_error_inside_a_segment_commits_the_same_steps(fail_at):
    # a flush that raises leaves the faulting instruction uncounted, on
    # both paths: F.index names it at every flush inside a segment
    module = _traced_module()
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        trace = _FlushLog(3, fail_at=fail_at)
        machine.trace = trace
        with pytest.raises(RuntimeError):
            machine.call("main", 6)
        observed[engine] = (
            machine.steps_executed, trace.flush_points, list(trace._buffer),
        )
    assert observed["table"] == observed["fused"]


def test_traced_load_past_the_pool_end_records_before_it_traps():
    module = _traced_module()
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        trace = _FlushLog(256)
        machine.trace = trace
        observed[engine] = _traced_outcome(
            machine, trace, "load_at", machine.pool.end
        )
    assert observed["table"] == observed["fused"]
    result, _steps, records = observed["fused"][:3]
    assert result[0] == "trap" and result[1].kind == "segfault"
    load = module.instr(result[1].iid)
    assert load.op == "load"
    end = Machine(module).pool.end
    assert records[-1] == (load.guid, end)


def test_trace_attached_after_segments_compiled_gets_every_record():
    # segments are cached on the module and shared by every machine, so
    # each run binds the trace it finds on its machine
    module = _traced_module()
    untraced = Machine(module)
    untraced.call("main", 4)
    assert any(
        block._fused_segs for func in module.functions.values()
        for block in func.blocks.values()
    )
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module)
        trace = _FlushLog(5)
        machine.trace = trace
        observed[engine] = _traced_outcome(machine, trace, "main", 4)
    assert observed["table"] == observed["fused"]
    assert observed["fused"][2]


def test_trace_load_clears_the_buffer_in_place():
    trace = PMTrace(flush_threshold=8)
    buffer = trace._buffer
    trace.record("g1", PM_BASE)
    trace.load([("g2", PM_BASE + 1)], emitted=5)
    assert trace._buffer is buffer and buffer == []
    assert len(trace) == 5 and trace.pairs() == [("g2", PM_BASE + 1)]


# ----------------------------------------------------------------------
# register write-back: a %t temp whose every use sits in its segment
# stays a Python local and never reaches frame.regs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("traced", [False, True])
def test_private_temps_are_never_materialised(traced):
    module = _traced_module() if traced else compile_module("t", _EDGE_SRC)
    machine = Machine(module)
    assert machine.call("load_at", PM_BASE + 3) == 1
    func = module.functions["load_at"]
    seg = _segment_holding(module, "load_at", "load")
    load = next(i for i in func.instructions() if i.op == "load")
    gep = next(i for i in func.instructions() if i.op == "gep")
    outside = {
        r for i in func.instructions() if i.iid not in seg.iids
        for r in i.uses()
    }
    named = {
        c for c in seg.run.__code__.co_consts
        if isinstance(c, str) and c.startswith("%t")
    }
    # v = p[0]: the gep's address and the load's value are private
    assert load.dst not in named and gep.dst not in named
    assert named <= outside, named - outside


# ----------------------------------------------------------------------
# the per-step branch: preemption and injections
#
# The production loop takes its per-step branch whenever a run is
# preempted or an instruction carries an injection; these cases pin it
# against the oracle's standalone copy of that loop.
# ----------------------------------------------------------------------
_RACE_SRC = """
def setup():
    return pm_alloc(4)

def bump(p, slot, n):
    i = 0
    while i < n:
        v = p[0]
        p[slot] = p[slot] + v
        p[0] = v + 1
        persist(p, 4)
        i = i + 1
    return p[0]

def spin(p):
    i = 0
    while 1:
        p[3] = p[3] + i
        i = i + 1
    return i
"""


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_concurrent_race_parity(seed):
    # three racing read-modify-write loops of different lengths: lost
    # updates depend on the interleaving, and the scheduler redraws its
    # time slice each time a thread finishes
    module = compile_module("t", _RACE_SRC)
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module, seed=seed)
        p = machine.call("setup")
        results = machine.call_concurrent([
            ("bump", (p, 1, 5)), ("bump", (p, 2, 17)), ("bump", (p, 3, 40)),
        ])
        observed[engine] = (
            results, machine.steps_executed, machine.pool.durable_items(),
        )
    assert observed["table"] == observed["fused"]


def _injected_at(cls, module, iid, crash_on=None):
    """A machine whose injection on ``iid`` logs the step count at each
    firing, and raises an injected crash on firing number ``crash_on``."""
    machine = cls(module)
    fired = []

    def hook(m, thread, instr):
        fired.append(m.steps_executed)
        if len(fired) == crash_on:
            raise InjectedCrash("injected", location="test")

    machine.add_injection(iid, hook)
    return machine, fired


def test_injection_inside_fusable_run_parity():
    # the injected instruction sits mid-way through a straight-line run
    # the production machine would otherwise execute as one segment
    module = compile_module("t", _SPIN_SRC)
    xor = next(i for i in module.instructions()
               if i.op == "binop" and i.args[0] == "^")
    observed = {}
    for engine, cls in VMS.items():
        machine, fired = _injected_at(cls, module, xor.iid)
        result = machine.call("spin", 40)
        observed[engine] = (result, fired, machine.steps_executed)
    assert observed["table"] == observed["fused"]
    assert len(observed["fused"][1]) == 40


def test_injected_crash_inside_fusable_run_parity():
    module = compile_module("t", _SPIN_SRC)
    xor = next(i for i in module.instructions()
               if i.op == "binop" and i.args[0] == "^")
    observed = {}
    for engine, cls in VMS.items():
        machine, fired = _injected_at(cls, module, xor.iid, crash_on=3)
        with pytest.raises(InjectedCrash):
            machine.call("spin", 40)
        observed[engine] = (fired, machine.steps_executed, machine.last_fault)
    assert observed["table"] == observed["fused"]
    assert observed["fused"][2].kind == "injected-crash"
    assert observed["fused"][2].iid == xor.iid


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_preempted_spin_hang_parity(seed):
    # two spinners never finish and one short thread does; the budget
    # runs out in whichever spinner the scheduler holds at that step
    module = compile_module("t", _RACE_SRC)
    observed = {}
    for engine, cls in VMS.items():
        machine = cls(module, seed=seed)
        p = machine.call("setup")
        before = machine.steps_executed
        with pytest.raises(HangTrap):
            machine.call_concurrent(
                [("spin", (p,)), ("bump", (p, 1, 3)), ("spin", (p,))],
                step_budget=400,
            )
        observed[engine] = (
            machine.steps_executed - before, machine.last_fault,
            machine.pool.read(p + 3),
        )
    assert observed["table"] == observed["fused"]
    assert observed["fused"][0] == 401


# ----------------------------------------------------------------------
# the production machine runs compiled segments
# ----------------------------------------------------------------------
def _compiled_blocks(module):
    return [
        block for func in module.functions.values()
        for block in func.blocks.values() if block._fused_segs is not None
    ]


def test_default_engine_is_fused():
    module = compile_module("t", "def f():\n    return 1\n")
    # the oracle never compiles a segment
    assert TableMachine(module).call("f") == 1
    assert _compiled_blocks(module) == []
    # the production machine does, on a plain call
    assert Machine(module).call("f") == 1
    assert _compiled_blocks(module)


def test_fused_beats_table_dispatch():
    """Fused must stay at least 1.5x ahead of per-step table dispatch on
    the spin loop (about 8x measured on an idle x86-64 core).  Falling
    back to per-step dispatch lands at ~1x, far under the margin."""
    module = compile_module("vmspin", _SPIN_SRC)
    n_iters = 20_000
    best = {}
    for engine, cls in VMS.items():
        for _ in range(3):
            machine = cls(module)
            t0 = time.perf_counter()
            machine.call("spin", n_iters, step_budget=100 * n_iters)
            took = time.perf_counter() - t0
            best[engine] = min(best.get(engine, took), took)
    assert best["fused"] * 1.5 < best["table"], (
        f"fused {best['fused']:.4f}s vs table {best['table']:.4f}s — "
        f"the fused VM regressed toward per-step dispatch"
    )


# ----------------------------------------------------------------------
# equivalence on the real fault experiments
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fid", FIDS)
def test_engines_equivalent_on_real_faults(
    fid, monkeypatch, arthas_bi_mitigation
):
    """Both VMs end every real experiment in the same final state.

    ``pool_digest`` fingerprints the durable image + allocator metadata,
    so digest equality is byte-level state equality.  The consistency
    probe is skipped: the digest is taken before it and the probe
    roughly doubles the runtime.  The fused-VM side is the session's
    shared production run.
    """
    a = arthas_bi_mitigation(fid)
    with monkeypatch.context() as m:
        m.setattr("repro.systems.common.Machine", TableMachine)
        b = run_experiment(
            fid, "arthas-bi", seed=0, consistency_probe=False
        ).mitigation
    assert a is not None and b is not None
    assert a.recovered and b.recovered
    assert a.pool_digest == b.pool_digest
    assert (a.attempts, a.reverted_updates, a.notes) == (
        b.attempts, b.reverted_updates, b.notes
    )
