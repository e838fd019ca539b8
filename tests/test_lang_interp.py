"""Tests for the PMLang virtual machine: traps, memory, threads, hooks."""

import pytest

from repro.errors import (
    ArithmeticTrap,
    AssertTrap,
    HangTrap,
    InjectedCrash,
    OutOfPMTrap,
    PanicTrap,
    ReproError,
    SegfaultTrap,
)
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.lang.interp import VOL_BASE, Machine
from tests.conftest import compile_and_run


def _expect_trap(src, fname, trap_cls, *args):
    """Compile, run, assert the trap type; returns (None, machine)."""
    module = compile_module("t", src)
    machine = Machine(module)
    with pytest.raises(trap_cls):
        machine.call(fname, *args)
    return None, machine


class TestTraps:
    def test_null_dereference_segfaults(self):
        src = "def f():\n    p = 0\n    return p[0]\n"
        module = compile_module("t", src)
        machine = Machine(module)
        with pytest.raises(SegfaultTrap):
            machine.call("f")
        assert machine.last_fault is not None
        assert machine.last_fault.kind == "segfault"
        assert machine.last_fault.iid >= 0

    def test_wild_pointer_segfaults(self):
        src = "def f():\n    p = 999999999\n    return p[0]\n"
        _, machine = _expect_trap(src, "f", SegfaultTrap)
        assert "load" in machine.last_fault.message

    def test_store_to_unmapped_segfaults(self):
        src = "def f():\n    p = 12345\n    p[0] = 1\n    return 0\n"
        _expect_trap(src, "f", SegfaultTrap)

    def test_use_after_vfree_segfaults(self):
        src = (
            "def f():\n"
            "    p = valloc(4)\n"
            "    vfree(p)\n"
            "    return p[0]\n"
        )
        _expect_trap(src, "f", SegfaultTrap)

    def test_division_by_zero(self):
        src = "def f(a):\n    return 1 // a\n"
        module = compile_module("t", src)
        with pytest.raises(ArithmeticTrap):
            Machine(module).call("f", 0)

    def test_assert_trap_carries_message(self):
        src = 'def f():\n    assert_true(0, "boom")\n    return 0\n'
        _, machine = _expect_trap(src, "f", AssertTrap)
        assert machine.last_fault.message == "boom"

    def test_panic_trap(self):
        src = 'def f():\n    panic("server panic")\n    return 0\n'
        _expect_trap(src, "f", PanicTrap)

    def test_plain_assert_statement(self):
        src = "def f(x):\n    assert x > 0, 'positive'\n    return x\n"
        module = compile_module("t", src)
        assert Machine(module).call("f", 1) == 1
        with pytest.raises(AssertTrap):
            Machine(module).call("f", 0)

    def test_hang_detection(self):
        src = "def f():\n    while True:\n        pass\n    return 0\n"
        module = compile_module("t", src)
        machine = Machine(module, step_budget=5000)
        with pytest.raises(HangTrap):
            machine.call("f")
        assert machine.last_fault.kind == "hang"

    def test_pm_exhaustion(self):
        src = (
            "def f():\n"
            "    while True:\n"
            "        p = pm_alloc(64)\n"
            "    return 0\n"
        )
        module = compile_module("t", src)
        with pytest.raises(OutOfPMTrap):
            Machine(module, pool_size=1024).call("f")

    def test_fault_stack_recorded(self):
        src = (
            "def inner():\n    panic('deep')\n    return 0\n"
            "def outer():\n    return inner()\n"
        )
        module = compile_module("t", src)
        machine = Machine(module)
        with pytest.raises(PanicTrap):
            machine.call("outer")
        funcs = [loc.split(":")[0] for loc in machine.last_fault.stack]
        assert funcs == ["outer", "inner"]

    def test_unset_register_is_host_error_not_trap(self):
        src = "def f(c):\n    if c:\n        x = 1\n    return x\n"
        module = compile_module("t", src)
        with pytest.raises(ReproError):
            Machine(module).call("f", 0)


class TestMemoryModel:
    def test_volatile_and_pm_are_disjoint(self):
        src = (
            "def f():\n"
            "    v = valloc(4)\n"
            "    p = pm_alloc(4)\n"
            "    v[0] = 1\n"
            "    p[0] = 2\n"
            "    return (p > v) * 10 + v[0] + p[0]\n"
        )
        assert compile_and_run(src, "f")[0] == 13

    def test_volatile_memory_lost_on_crash(self):
        src = (
            "def setup():\n"
            "    v = valloc(2)\n"
            "    v[0] = 9\n"
            "    return v\n"
            "def readv(v):\n"
            "    return v[0]\n"
        )
        module = compile_module("t", src)
        machine = Machine(module)
        v = machine.call("setup")
        assert machine.call("readv", v) == 9
        machine.crash()
        with pytest.raises(SegfaultTrap):
            machine.call("readv", v)

    def test_getroot_setroot(self):
        src = (
            "def setup():\n"
            "    p = pm_alloc(4)\n"
            "    set_root(p)\n"
            "    return p\n"
            "def readroot():\n"
            "    return get_root()\n"
        )
        module = compile_module("t", src)
        machine = Machine(module)
        p = machine.call("setup")
        assert machine.call("readroot") == p

    def test_emit_channel(self):
        src = 'def f(x):\n    emit("value", x)\n    emit("value", x + 1)\n    return 0\n'
        module = compile_module("t", src)
        machine = Machine(module)
        machine.call("f", 5)
        assert machine.emitted["value"] == [5, 6]


class TestInjections:
    def test_injected_crash(self):
        src = "def f():\n    nop()\n    return 1\n"
        module = compile_module("t", src)
        machine = Machine(module)
        nop_iid = next(i.iid for i in module.instructions() if i.op == "nop")

        def boom(m, thread, instr):
            raise InjectedCrash("now", location=instr.location())

        machine.add_injection(nop_iid, boom)
        with pytest.raises(InjectedCrash):
            machine.call("f")
        machine.injections.clear()
        assert machine.call("f") == 1

    def test_injection_can_mutate_state(self):
        src = (
            "def f():\n"
            "    p = pm_alloc(1)\n"
            "    p[0] = 7\n"
            "    persist(p, 1)\n"
            "    nop()\n"
            "    return p[0]\n"
        )
        module = compile_module("t", src)
        machine = Machine(module)
        nop_iid = next(i.iid for i in module.instructions() if i.op == "nop")

        def flip(m, thread, instr):
            # flip bit 0 of the first allocated word (hardware fault)
            addrs = sorted(m.allocator.allocations())
            m.pool.durable_write(addrs[0], m.pool.durable_read(addrs[0]) ^ 1)
            m.pool.discard_cached(addrs[0], 1)

        machine.add_injection(nop_iid, flip)
        assert machine.call("f") == 6


class TestThreads:
    def test_concurrent_interleaving_is_deterministic(self):
        src = (
            "def writer(p, v):\n"
            "    i = 0\n"
            "    while i < 20:\n"
            "        p[0] = v\n"
            "        thread_yield()\n"
            "        p[1] = p[0]\n"
            "        i = i + 1\n"
            "    return p[1]\n"
            "def setup():\n"
            "    return pm_alloc(2)\n"
        )
        module = compile_module("t", src)

        def run(seed):
            machine = Machine(module, seed=seed)
            p = machine.call("setup")
            return machine.call_concurrent(
                [("writer", (p, 1)), ("writer", (p, 2))]
            )

        assert run(3) == run(3)


class TestTracing:
    def test_tracer_receives_pm_addresses(self):
        src = (
            "def f():\n"
            "    p = pm_alloc(2)\n"
            "    p[0] = 1\n"
            "    persist(p, 2)\n"
            "    return p[0]\n"
        )
        module = compile_module("t", src)
        # mark all instructions as traced
        for instr in module.instructions():
            instr.guid = f"g{instr.iid}"
        machine = Machine(module)
        trace = PMTrace()
        machine.trace = trace
        machine.call("f")
        trace.flush()
        assert len(trace), "trace saw no PM addresses"
        addrs = {a for _g, a in trace.pairs()}
        assert addrs and all(machine.pool.contains(a) for a in addrs)
