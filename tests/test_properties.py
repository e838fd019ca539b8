"""Cross-cutting property tests.

* PMLang arithmetic agrees with Python on random expressions.
* Every target system agrees with a dict model under random workloads
  (and stays internally consistent, and survives restart+recovery).
* For random single-update corruptions of a KV store, the Arthas
  pipeline (slice -> plan -> purge) recovers the store.
* Experiments are deterministic for a fixed seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detector.monitor import Detector
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine
from repro.reactor.plan import compute_plan
from repro.reactor.revert import Reverter
from repro.systems import ALL_ADAPTERS


# ----------------------------------------------------------------------
# PMLang arithmetic vs Python
# ----------------------------------------------------------------------
_expr = st.recursive(
    st.sampled_from(["a", "b", "c"]) | st.integers(-50, 50).map(str),
    lambda inner: st.tuples(
        inner, st.sampled_from(["+", "-", "*", "//", "%", "&", "|", "^"]), inner
    ).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    max_leaves=12,
)


@given(_expr, st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 30))
@settings(max_examples=120, deadline=None)
def test_pmlang_arithmetic_matches_python(expr, a, b, c):
    src = f"def f(a, b, c):\n    return {expr}\n"
    try:
        expected = eval(expr, {}, {"a": a, "b": b, "c": c})
    except ZeroDivisionError:
        return  # both sides trap; covered by interpreter unit tests
    module = compile_module("prop", src)
    got = Machine(module).call("f", a, b, c)
    assert got == expected


# ----------------------------------------------------------------------
# system vs dict model
# ----------------------------------------------------------------------
_workload = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "delete"]),
        st.integers(0, 40),
        st.integers(0, 10_000),
    ),
    max_size=80,
)


@pytest.mark.parametrize("system", sorted(ALL_ADAPTERS))
@given(ops=_workload)
@settings(max_examples=25, deadline=None)
def test_system_matches_dict_model(system, ops):
    adapter = ALL_ADAPTERS[system]()
    adapter.start()
    model = {}
    for kind, key, value in ops:
        if kind == "insert":
            adapter.insert(key, value)
            model[key] = value
        elif kind == "lookup":
            assert adapter.lookup(key) == model.get(key, -1)
        else:
            assert adapter.delete(key) == (1 if key in model else 0)
            model.pop(key, None)
    assert adapter.count_items() == len(model)
    assert adapter.consistency_violations() == []
    # restart + recovery preserves exactly the model
    adapter.restart()
    adapter.recover()
    for key, value in model.items():
        assert adapter.lookup(key) == value
    assert adapter.count_items() == len(model)


# ----------------------------------------------------------------------
# random corruption -> Arthas recovery
# ----------------------------------------------------------------------
@given(
    n_items=st.integers(3, 12),
    victim_idx=st.integers(0, 100),
    bogus=st.sampled_from([0x3B9ACA00, 0x7FFFFFFF, 1]),
)
@settings(max_examples=20, deadline=None)
def test_arthas_recovers_random_chain_corruption(n_items, victim_idx, bogus):
    """Persist a wild next-pointer into a random node; the slice-driven
    purge must make the store operational again."""
    from tests.conftest import KV_SOURCE, KV_STRUCTS
    from repro.analysis import analyze_module
    from repro.checkpoint.manager import CheckpointManager
    from repro.instrument.passes import instrument_module
    from repro.instrument.tracer import PMTrace

    module = compile_module("prop-kv", KV_SOURCE, structs=KV_STRUCTS)
    analysis = analyze_module(module)
    guid_map, _ = instrument_module(module, analysis.pm)
    machine = Machine(module)
    manager = CheckpointManager(machine.pool, machine.allocator, machine.txman)
    manager.attach()
    trace = PMTrace()
    machine.trace = trace

    root = machine.call("kv_init")
    for k in range(n_items):
        machine.call("kv_put", root, k, 100 + k)

    # corrupt one node's kn_next through the normal (persisting) path:
    # walk to the victim from the head
    head = machine.pool.read(root + 1)
    node = head
    for _ in range(victim_idx % n_items):
        node = machine.pool.read(node + 2)
    machine.pool.write(node + 2, bogus)
    machine.pool.persist(node + 2, 1)

    detector = Detector()
    probe = n_items + 99  # absent key: the walk must terminate cleanly
    outcome = detector.observe(
        machine, lambda: machine.call("kv_get", root, probe, step_budget=20000)
    )
    if outcome.ok:
        return  # bogus value happened to terminate the walk benignly

    plan = compute_plan(analysis, guid_map, trace, manager.log,
                        outcome.fault.iid)

    def reexec():
        machine.crash()
        return detector.observe(
            machine,
            lambda: machine.call("kv_get", root, probe, step_budget=20000),
        )

    reverter = Reverter(manager.log, machine.pool, machine.allocator,
                        reexec=reexec)
    result = reverter.mitigate_purge(plan)
    assert result.recovered


# ----------------------------------------------------------------------
# experiment determinism
# ----------------------------------------------------------------------
def test_experiments_are_deterministic():
    from repro.harness.experiment import run_experiment

    a = run_experiment("f11", "arthas", seed=3)
    b = run_experiment("f11", "arthas", seed=3)
    ma, mb = a.mitigation, b.mitigation
    assert (ma.recovered, ma.attempts, ma.reverted_updates,
            ma.duration_seconds) == (
        mb.recovered, mb.attempts, mb.reverted_updates, mb.duration_seconds
    )
