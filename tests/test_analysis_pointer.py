"""Tests for the Andersen points-to analysis and PM classification."""

from repro.analysis import analyze_module
from repro.analysis.pointer import ROOT_SITE, TOP, analyze_pointers
from repro.analysis.pmvars import classify_pm
from repro.lang.compiler import compile_module


def _analyze(src, structs=None):
    module = compile_module("t", src, structs=structs or {})
    return module, analyze_pointers(module)


def test_alloc_creates_pm_site():
    module, pts = _analyze("def f():\n    p = pm_alloc(4)\n    return p\n")
    locs = pts.pts_of("f", "p")
    assert len(locs) == 1
    site, off = next(iter(locs))
    assert off == 0
    assert pts.site_space[site] == "pm"
    assert pts.is_pm_pointer("f", "p")


def test_volatile_alloc_is_not_pm():
    module, pts = _analyze("def f():\n    v = valloc(4)\n    return v\n")
    assert not pts.is_pm_pointer("f", "v")


def test_copy_propagates_points_to():
    module, pts = _analyze(
        "def f():\n    p = pm_alloc(4)\n    q = p\n    return q\n"
    )
    assert pts.pts_of("f", "q") == pts.pts_of("f", "p")


def test_field_sensitivity():
    src = (
        'def f():\n'
        '    p = pm_alloc(sizeof("pair"))\n'
        '    a = addr(p.pr_a)\n'
        '    b = addr(p.pr_b)\n'
        '    return a + b\n'
    )
    module, pts = _analyze(src, structs={"pair": ["pr_a", "pr_b"]})
    la = pts.pts_of("f", "a")
    lb = pts.pts_of("f", "b")
    assert {off for _s, off in la} == {0}
    assert {off for _s, off in lb} == {1}


def test_indexed_gep_collapses_to_top():
    src = "def f(i):\n    p = pm_alloc(8)\n    q = addr(p[i])\n    return q\n"
    module, pts = _analyze(src)
    assert {off for _s, off in pts.pts_of("f", "q")} == {TOP}


def test_pointer_arithmetic_weakens_to_top():
    src = "def f():\n    p = pm_alloc(8)\n    q = p + 3\n    return q\n"
    module, pts = _analyze(src)
    assert {off for _s, off in pts.pts_of("f", "q")} == {TOP}
    assert pts.is_pm_pointer("f", "q")


def test_heap_flow_through_store_load():
    src = (
        'def f():\n'
        '    box = pm_alloc(sizeof("box"))\n'
        '    inner = pm_alloc(2)\n'
        '    box.bx_ptr = inner\n'
        '    out = box.bx_ptr\n'
        '    return out\n'
    )
    module, pts = _analyze(src, structs={"box": ["bx_ptr"]})
    inner = pts.pts_of("f", "inner")
    out = pts.pts_of("f", "out")
    assert inner <= out


def test_root_cell_flow():
    src = (
        "def store():\n"
        "    p = pm_alloc(4)\n"
        "    set_root(p)\n"
        "    return p\n"
        "def load():\n"
        "    return get_root()\n"
    )
    module, pts = _analyze(src)
    assert pts.pts_of("store", "p") <= pts.pts_of("load", "%t2") | pts.pts_of(
        "load", "%t1"
    )
    assert pts.is_pm_pointer("load", next(
        i.dst for i in module.functions["load"].instructions() if i.op == "getroot"
    ))


def test_interprocedural_param_and_return_flow():
    src = (
        "def make():\n    return pm_alloc(4)\n"
        "def use(p):\n    return p[0]\n"
        "def main():\n"
        "    q = make()\n"
        "    return use(q)\n"
    )
    module, pts = _analyze(src)
    assert pts.is_pm_pointer("main", "q")
    assert pts.is_pm_pointer("use", "p")


def test_load_store_footprints_recorded():
    src = (
        "def f():\n"
        "    p = pm_alloc(2)\n"
        "    p[0] = 1\n"
        "    return p[0]\n"
    )
    module, pts = _analyze(src)
    stores = [i for i in module.instructions() if i.op == "store"]
    loads = [i for i in module.instructions() if i.op == "load"]
    assert all(s.iid in pts.store_locs for s in stores)
    assert all(l.iid in pts.load_locs for l in loads)


def test_pm_classification_covers_accesses(kv_module):
    pts = analyze_pointers(kv_module)
    pm = classify_pm(kv_module, pts)
    # every store through a node pointer must be classified PM
    put = kv_module.functions["kv_put"]
    stores = [i for i in put.instructions() if i.op == "store"]
    assert stores
    assert all(pm.is_pm_instr(s.iid) for s in stores)
    # PM registers include the root and node pointers
    assert ("kv_put", "node") in pm.pm_registers
    assert ("kv_get", "node") in pm.pm_registers


def test_solver_terminates_quickly(kv_module):
    pts = analyze_pointers(kv_module)
    assert pts.iterations < 50
