"""Tests for PDG construction and program slicing."""

from repro.analysis import analyze_module
from repro.analysis.slicing import backward_slice, slice_distances
from repro.checkpoint.log import CheckpointLog
from repro.instrument.guids import GuidMap
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.reactor.plan import compute_plan


def _analyze(src, structs=None):
    module = compile_module("t", src, structs=structs or {})
    return module, analyze_module(module)


def _find(module, fname, op, nth=0):
    hits = [i for i in module.functions[fname].instructions() if i.op == op]
    return hits[nth]


def test_data_dependence_chain():
    src = "def f(a):\n    b = a + 1\n    c = b * 2\n    return c\n"
    module, res = _analyze(src)
    ret = _find(module, "f", "ret")
    sl = backward_slice(res.pdg, ret.iid)
    ops = {module.instr(i).op for i in sl}
    assert "binop" in ops  # both arithmetic steps are in the slice


def test_unrelated_computation_excluded():
    src = (
        "def f(a):\n"
        "    unrelated = a * 100\n"
        "    b = a + 1\n"
        "    return b\n"
    )
    module, res = _analyze(src)
    ret = _find(module, "f", "ret")
    sl = backward_slice(res.pdg, ret.iid)
    mul = next(
        i for i in module.functions["f"].instructions()
        if i.op == "binop" and i.args[0] == "*"
    )
    assert mul.iid not in sl


def test_control_dependence_in_slice():
    src = (
        "def f(c):\n"
        "    x = 0\n"
        "    if c:\n        x = 1\n"
        "    return x\n"
    )
    module, res = _analyze(src)
    store_x1 = next(
        i for i in module.functions["f"].instructions()
        if i.block.startswith("then") and i.op == "mov"
    )
    sl = backward_slice(res.pdg, store_x1.iid)
    cbrs = [i.iid for i in module.functions["f"].instructions() if i.op == "cbr"]
    assert any(c in sl for c in cbrs)


def test_memory_dependence_links_store_to_load():
    src = (
        "def w():\n"
        "    p = pm_alloc(2)\n"
        "    set_root(p)\n"
        "    p[0] = 7\n"
        "    persist(p, 2)\n"
        "    return 0\n"
        "def r():\n"
        "    p = get_root()\n"
        "    return p[0]\n"
        "def main():\n"
        "    w()\n"
        "    return r()\n"
    )
    module, res = _analyze(src)
    load = _find(module, "r", "load")
    store = next(i for i in module.functions["w"].instructions() if i.op == "store")
    sl = backward_slice(res.pdg, load.iid)
    assert store.iid in sl


def test_pm_slice_keeps_only_pm_instrs(kv_module):
    res = analyze_module(kv_module)
    get_loop_load = next(
        i for i in kv_module.functions["kv_get"].instructions() if i.op == "load"
    )
    full = backward_slice(res.pdg, get_loop_load.iid)
    pm_only = {i for i in full if res.pm.is_pm_instr(i)}
    assert pm_only, "PM slice should not be empty for a PM load"
    assert len(pm_only) < len(full)
    plan = compute_plan(
        res, GuidMap("kv"), PMTrace(), CheckpointLog(), get_loop_load.iid
    )
    assert plan.slice_size == len(full)
    assert plan.pm_slice_size == len(pm_only)


def test_slice_includes_cross_function_root_cause(kv_module):
    """The defining property Arthas relies on: the store in kv_put that
    links a node is in the backward slice of kv_get's traversal."""
    res = analyze_module(kv_module)
    get_load = next(
        i for i in kv_module.functions["kv_get"].instructions() if i.op == "load"
    )
    sl = backward_slice(res.pdg, get_load.iid)
    put_stores = [
        i.iid for i in kv_module.functions["kv_put"].instructions() if i.op == "store"
    ]
    assert any(s in sl for s in put_stores)


def test_slice_distances_monotone():
    src = "def f(a):\n    b = a + 1\n    c = b * 2\n    d = c - 3\n    return d\n"
    module, res = _analyze(src)
    ret = _find(module, "f", "ret")
    dist = slice_distances(res.pdg, ret.iid)
    assert dist[ret.iid] == 0
    assert all(v >= 0 for v in dist.values())
    assert backward_slice(res.pdg, ret.iid) == set(dist)


def test_pdg_counts(kv_module):
    res = analyze_module(kv_module)
    assert res.pdg.node_count() > 0
    assert res.pdg.edge_count() > res.pdg.node_count() // 2
