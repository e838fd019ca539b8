"""Tests for CFG construction, post-dominators and control dependence."""

from repro.analysis.cfg import VIRTUAL_EXIT, FunctionCFG
from repro.lang.compiler import compile_module


def _cfg(src, fname="f"):
    module = compile_module("t", src)
    return module, FunctionCFG(module.functions[fname])


def test_straight_line_has_no_control_deps():
    module, cfg = _cfg("def f(a):\n    b = a + 1\n    return b\n")
    cd = cfg.control_dependences()
    assert all(not deps for deps in cd.values())


def test_if_branch_controls_then_block():
    src = (
        "def f(a):\n"
        "    x = 0\n"
        "    if a:\n        x = 1\n"
        "    return x\n"
    )
    module, cfg = _cfg(src)
    cd = cfg.control_dependences()
    controlled = {block for block, deps in cd.items() if deps}
    assert any(b.startswith("then") for b in controlled)
    # the join block runs regardless: not control dependent
    assert not any(b.startswith("join") for b in controlled)


def test_if_else_both_arms_controlled():
    src = (
        "def f(a):\n"
        "    if a:\n        x = 1\n"
        "    else:\n        x = 2\n"
        "    return x\n"
    )
    module, cfg = _cfg(src)
    cd = cfg.control_dependences()
    controlled = {b for b, deps in cd.items() if deps}
    assert any(b.startswith("then") for b in controlled)
    assert any(b.startswith("else") for b in controlled)


def test_loop_body_controlled_by_loop_header():
    src = (
        "def f(n):\n"
        "    s = 0\n"
        "    i = 0\n"
        "    while i < n:\n"
        "        s = s + i\n"
        "        i = i + 1\n"
        "    return s\n"
    )
    module, cfg = _cfg(src)
    cd = cfg.control_dependences()
    body_deps = {b: deps for b, deps in cd.items() if b.startswith("body")}
    assert body_deps
    # the controlling block is the loop header holding the cbr
    for deps in body_deps.values():
        assert any(d.startswith("loop") for d in deps)


def test_loop_header_self_dependence():
    src = (
        "def f(n):\n"
        "    i = 0\n"
        "    while i < n:\n"
        "        i = i + 1\n"
        "    return i\n"
    )
    module, cfg = _cfg(src)
    cd = cfg.control_dependences()
    loop_blocks = [b for b in cd if b.startswith("loop")]
    assert loop_blocks
    # the header re-executes only if the branch took the body: the header
    # is control dependent on itself
    assert any(b in cd[b] for b in loop_blocks)


def test_postdominators_computed_for_all_blocks():
    src = (
        "def f(a):\n"
        "    if a:\n        return 1\n"
        "    else:\n        return 2\n"
    )
    module, cfg = _cfg(src)
    ipdom = cfg.immediate_postdominators()
    for label in module.functions["f"].block_order:
        assert label in ipdom

def test_successors_and_preds_consistent():
    src = (
        "def f(n):\n"
        "    s = 0\n"
        "    for i in range(n):\n        s += i\n"
        "    return s\n"
    )
    module, cfg = _cfg(src)
    for label, succs in cfg.succs.items():
        for s in succs:
            assert label in cfg.preds[s]
