"""The park hook: one callable, scoped to the thread that installs it.

A mitigation worker installs its park point with
:func:`repro.lang.interp.cooperative_yield`; three places fire it on
that thread — guest calls every ``YIELD_EVERY_STEPS`` executed steps,
the plan join once per PM slice node, and the probe engine once per
group apply or undo.  Guest calls on any other thread never do, which
is what keeps a serving thread from parking itself.
"""

import threading

import pytest

from repro.analysis.slicing import slice_distances
from repro.lang.compiler import compile_module
from repro.lang.interp import YIELD_EVERY_STEPS, Machine, cooperative_yield, park
from repro.reactor.plan import MAX_SLICE_DISTANCE, compute_plan
from repro.reactor.revert import Reverter, _DeltaProbeEngine
from repro.systems.memcached import MemcachedAdapter
from tests.synth_state import build_synthetic_state

SPIN = "def spin(n):\n    i = 0\n    while i < n:\n        i = i + 1\n    return i\n"

#: a park fires at the first step or segment boundary at or past its
#: mark; no segment of SPIN is anywhere near this long
SEGMENT_SLACK = 64


def test_guest_calls_park_every_yield_every_steps_on_every_machine():
    module = compile_module("spin", SPIN)
    first = Machine(module)
    fired = []
    with cooperative_yield(lambda: fired.append((machine, machine.steps_executed))):
        for machine in (first, Machine(module)):  # a restart's fresh machine too
            for _ in range(3):
                machine.call("spin", 2_000)
    for machine in (first, fired[-1][0]):
        marks = [steps for m, steps in fired if m is machine]
        assert len(marks) >= 2
        assert YIELD_EVERY_STEPS <= marks[0] < YIELD_EVERY_STEPS + SEGMENT_SLACK
        for a, b in zip(marks, marks[1:]):
            assert YIELD_EVERY_STEPS <= b - a < YIELD_EVERY_STEPS + SEGMENT_SLACK
    assert fired[-1][0] is not first


def test_plan_join_parks_once_per_pm_slice_node_near_or_far(f1_hang):
    mc, outcome = f1_hang
    fault_iid = outcome.fault.iid
    parks = []
    with cooperative_yield(lambda: parks.append(1)):
        plan = compute_plan(
            mc.analysis, mc.guid_map, mc.trace, mc.ckpt.log, fault_iid
        )
    assert plan.candidates
    assert len(parks) == plan.pm_slice_size
    far = [
        iid
        for iid, d in slice_distances(mc.analysis.pdg, fault_iid).items()
        if d > MAX_SLICE_DISTANCE and mc.analysis.pm.is_pm_instr(iid)
    ]
    assert far, "every PM slice node lies within the cap here"


def test_probe_engine_parks_once_per_group_apply_or_undo():
    state = build_synthetic_state(200, seed=0)
    reverter = Reverter(state.log, state.pool, state.allocator, state.reexec())
    groups = [[c.seq] for c in state.candidates[:4]]
    engine = _DeltaProbeEngine(reverter, groups)
    parks = []
    with cooperative_yield(lambda: parks.append(engine.pos)):
        engine.seek(3)  # three applies
        engine.seek(1)  # two undos
        engine.abort()  # one undo
    engine.close()
    assert parks == [0, 1, 2, 3, 2, 1]


def test_guest_calls_on_another_thread_never_park():
    adapter = MemcachedAdapter()
    adapter.start()
    fired = []

    def serve():
        for key in range(200):
            adapter.insert(key, key + 1)

    with cooperative_yield(lambda: fired.append(threading.get_ident())):
        server = threading.Thread(target=serve, name="serve")
        server.start()
        server.join(timeout=60)
        assert not server.is_alive()
        assert fired == []
        for key in range(200):  # the installing thread's own calls park
            adapter.lookup(key)
    assert fired and set(fired) == {threading.get_ident()}


def test_nested_install_restores_the_outer_hook():
    calls = []
    with cooperative_yield(lambda: calls.append("outer")):
        park()
        with cooperative_yield(lambda: calls.append("inner")):
            park()
        park()
    park()
    assert calls == ["outer", "inner", "outer"]


def test_an_exception_in_the_block_still_removes_the_hook():
    calls = []
    with pytest.raises(RuntimeError):
        with cooperative_yield(lambda: calls.append("hook")):
            raise RuntimeError("mitigation failed")
    park()
    Machine(compile_module("spin", SPIN)).call("spin", 5_000)
    assert calls == []
