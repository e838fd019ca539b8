"""Tests for dynamic dependence recording and dynamic slicing."""

from repro.analysis import analyze_module
from repro.analysis.dynslice import DynamicDependenceRecorder, dynamic_slice
from repro.analysis.slicing import backward_slice
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine


def _run_with_recorder(src, calls, structs=None):
    module = compile_module("d", src, structs=structs or {})
    machine = Machine(module)
    recorder = DynamicDependenceRecorder()
    recorder.attach(machine)
    results = [machine.call(fname, *args) for fname, args in calls]
    return module, machine, recorder, results


def test_records_register_dataflow():
    src = "def f(a):\n    b = a + 1\n    c = b * 2\n    return c\n"
    module, machine, recorder, results = _run_with_recorder(src, [("f", (3,))])
    assert results == [8]
    ret = next(i for i in module.functions["f"].instructions() if i.op == "ret")
    sl = dynamic_slice(recorder, ret.iid)
    ops = {module.instr(i).op for i in sl}
    assert "binop" in ops


def test_memory_flow_links_actual_writer_only():
    src = (
        "def f(which):\n"
        "    p = pm_alloc(2)\n"
        "    q = pm_alloc(2)\n"
        "    p[0] = 1\n"
        "    q[0] = 2\n"
        "    if which:\n"
        "        return p[0]\n"
        "    return q[0]\n"
    )
    module, machine, recorder, _ = _run_with_recorder(src, [("f", (1,))])
    loads = [i for i in module.functions["f"].instructions()
             if i.op == "load" and i.block.startswith("then")]
    assert loads
    sl = dynamic_slice(recorder, loads[0].iid)
    stores = [i for i in module.functions["f"].instructions() if i.op == "store"]
    p_store, q_store = stores[0], stores[1]
    assert p_store.iid in sl
    # the store to q was executed but never read on this path
    assert q_store.iid not in sl


def test_call_return_linkage():
    src = (
        "def helper(x):\n    return x + 1\n"
        "def f(a):\n"
        "    b = helper(a)\n"
        "    return b * 2\n"
    )
    module, machine, recorder, results = _run_with_recorder(src, [("f", (4,))])
    assert results == [10]
    ret_f = next(i for i in module.functions["f"].instructions() if i.op == "ret")
    sl = dynamic_slice(recorder, ret_f.iid)
    helper_add = next(
        i for i in module.functions["helper"].instructions() if i.op == "binop"
    )
    assert helper_add.iid in sl


def test_dynamic_slice_is_subset_of_static_slice(kv_module):
    """Soundness cross-check: dynamic dependences must all be captured by
    the static PDG's backward slice."""
    analysis = analyze_module(kv_module)
    machine = Machine(kv_module)
    recorder = DynamicDependenceRecorder()
    recorder.attach(machine)
    root = machine.call("kv_init")
    for k in range(8):
        machine.call("kv_put", root, k, 50 + k)
    machine.call("kv_delete", root, 3)
    machine.call("kv_get", root, 6)
    get_load = next(
        i for i in kv_module.functions["kv_get"].instructions() if i.op == "load"
    )
    dyn = dynamic_slice(recorder, get_load.iid)
    static = backward_slice(analysis.pdg, get_load.iid)
    assert dyn <= static
    assert len(dyn) < len(static), "dynamic slicing should be strictly tighter"


def test_crash_clears_frame_shadows_only():
    src = (
        "def setv():\n"
        "    p = pm_alloc(1)\n"
        "    set_root(p)\n"
        "    p[0] = 7\n"
        "    persist(p, 1)\n"
        "    return 0\n"
        "def getv():\n"
        "    p = get_root()\n"
        "    return p[0]\n"
    )
    module = compile_module("d", src)
    machine = Machine(module)
    recorder = DynamicDependenceRecorder()
    recorder.attach(machine)
    machine.call("setv")
    machine.crash()
    recorder.crash()
    machine.call("getv")
    load = next(i for i in module.functions["getv"].instructions() if i.op == "load")
    sl = dynamic_slice(recorder, load.iid)
    store = next(i for i in module.functions["setv"].instructions() if i.op == "store")
    # PM provenance survives the crash: the pre-crash store is in the slice
    assert store.iid in sl


def test_recorder_counts(kv_module):
    machine = Machine(kv_module)
    recorder = DynamicDependenceRecorder()
    recorder.attach(machine)
    root = machine.call("kv_init")
    machine.call("kv_put", root, 1, 2)
    assert recorder.instructions_recorded > 20
    assert recorder.edge_count() > 10
