"""A covered gep's carriers hold exactly the addresses it would record.

The instrumentation pass gives a PM gep no tracing call when the traced
readers of its result (its carriers) record the same addresses, and
both trace joins (``compute_plan`` and the purge/bisect forward pass)
read a gep's addresses through :meth:`GuidMap.carriers`.  The oracle is
the seed pass, which traces every PM instruction
(``tests.oracles.instrument``).  Each flow runs once under each pass,
with no restart between the trap and planning: a restart drops the
unflushed buffer, and the two passes fill it at different rates.

* memcached's f1 poison-and-probe flow;
* a linked list read through ``root.c_head.n_val``: the loaded head
  pointer feeds a covered gep directly, so the forward pass from that
  load reaches the gep's carriers one PDG hop further out.  No PM
  instruction of the six systems has a covered gep as a dependent:
  they name every pointer they load.
"""

import sys

import pytest

from repro.analysis import analyze_module
from repro.analysis.slicing import backward_slice
from repro.detector.monitor import Detector
from repro.harness.experiment import forward_seqs
from repro.instrument.passes import instrument_module
from repro.lang.compiler import compile_module
from repro.reactor import plan
from repro.reactor.plan import MAX_SLICE_DISTANCE, Candidate, compute_plan
from repro.systems.common import SystemAdapter, _StaticArtifacts
from repro.systems.memcached import MemcachedAdapter
from tests.oracles import seed_instrument_module


def _f1_flow(mc):
    """Drive one item's refcount to zero (f1) and reap it; the probe."""
    for k in range(40):
        mc.insert(k, 900_000_000 + k)
    victim = 5
    while mc.call("mc_refcount", mc.root, victim) != 0:
        mc.lookup(victim)
    mc.reap()
    mc.insert(victim + (1 << 20), 1)
    probe = victim + (1 << 21)
    return lambda: mc.lookup(probe)


class _ChainAdapter(SystemAdapter):
    NAME = "chain"
    STRUCTS = {"croot": ["c_head"], "cnode": ["n_val", "n_next"]}
    SOURCE = '''
def init():
    root = get_root()
    if root == 0:
        root = pm_alloc(sizeof("croot"))
        root.c_head = 0
        persist(root, sizeof("croot"))
        set_root(root)
    return root


def push(root, v):
    node = pm_alloc(sizeof("cnode"))
    node.n_val = v
    node.n_next = root.c_head
    persist(node, sizeof("cnode"))
    root.c_head = node
    persist(addr(root.c_head), 1)
    return v


def check(root):
    assert_true(root.c_head.n_val < 100, "head value out of range")
    return 0


def __driver__():
    root = init()
    push(root, 1)
    check(root)
    return 0
'''


def _chain_flow(adapter):
    for v in (1, 2, 3, 500):
        adapter.call("push", adapter.root, v)
    return lambda: adapter.call("check", adapter.root)


FLOWS = {
    "memcached-f1": (MemcachedAdapter, _f1_flow),
    "chain": (_ChainAdapter, _chain_flow),
}


def _run(cls, flow, instrument):
    """Run ``flow`` on a fresh compile of ``cls`` instrumented by
    ``instrument``; return the adapter and the trapping instruction."""
    module = compile_module(cls.NAME, cls.SOURCE, structs=cls.STRUCTS)
    analysis = analyze_module(module)
    guid_map, _seconds = instrument(module, analysis.pm)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(
            SystemAdapter._static, cls.NAME,
            _StaticArtifacts(module, analysis, guid_map, 0.0),
        )
        adapter = cls()
    adapter.start()
    probe = flow(adapter)
    outcome = Detector().observe(adapter.machine, probe)
    assert not outcome.ok
    adapter.trace.flush()
    return adapter, outcome.fault.iid


@pytest.fixture(scope="module", params=sorted(FLOWS))
def runs(request):
    """(production adapter, seed-pass adapter, fault iid)."""
    cls, flow = FLOWS[request.param]
    production, fault_iid = _run(cls, flow, instrument_module)
    seed, seed_fault_iid = _run(cls, flow, seed_instrument_module)
    assert seed_fault_iid == fault_iid
    return production, seed, fault_iid


def _pm_geps(adapter):
    return {
        i.iid for i in adapter.module.instructions()
        if i.op == "gep" and adapter.analysis.pm.is_pm_instr(i.iid)
    }


def test_carriers_hold_every_gep_address_the_seed_pass_records(runs):
    production, seed, _fault_iid = runs
    geps = _pm_geps(production)
    touched = 0
    for iid in geps:
        # every PM gep of both programs is covered
        assert production.module.instr(iid).guid is None
        guid = production.guid_map.guid_of(iid)
        assert production.trace.addresses_for_guid(guid) == set()
        carried = set()
        for carrier in production.guid_map.carriers(iid):
            carried |= production.trace.addresses_for_guid(carrier)
        assert carried == seed.trace.addresses_for_guid(guid), iid
        touched += bool(carried)
    assert touched >= max(1, len(geps) // 4)
    assert len(production.trace) < 0.75 * len(seed.trace)


@pytest.mark.parametrize("reach", [
    sys.maxsize, MAX_SLICE_DISTANCE,
], ids=["default", "distance"])
def test_plan_equals_the_seed_pass_plan(runs, reach, monkeypatch):
    # the fault's slice, then its geps alone: a plan found only through
    # carriers must match in candidates and order too.  ``default``
    # joins every PM slice node, as the seed's newest-first plan did;
    # ``distance`` keeps compute_plan's MAX_SLICE_DISTANCE cap
    monkeypatch.setattr(plan, "MAX_SLICE_DISTANCE", reach)
    production, seed, fault_iid = runs
    gep_slice = _pm_geps(production) & set(
        backward_slice(production.analysis.pdg, fault_iid)
    )
    assert gep_slice
    for override in (None, gep_slice):
        lists = [
            [
                (c.seq, c.addr, c.slice_iid)
                for c in compute_plan(
                    r.analysis, r.guid_map, r.trace, r.ckpt.log, fault_iid,
                    slice_override=override,
                ).candidates
            ]
            for r in (production, seed)
        ]
        assert lists[0] and lists[0] == lists[1]


def test_forward_pass_equals_the_seed_pass(runs):
    # every plan candidate, and a probe at every PM instruction
    production, seed, fault_iid = runs
    cands = compute_plan(
        production.analysis, production.guid_map, production.trace,
        production.ckpt.log, fault_iid,
    ).candidates
    assert cands
    cands += [
        Candidate(seq=0, addr=0, guid="", slice_iid=iid)
        for iid in sorted(production.analysis.pm.pm_instr_iids)
    ]
    geps = _pm_geps(production)
    through_gep = 0
    for cand in cands:
        seqs = forward_seqs(production, cand)
        assert seqs == forward_seqs(seed, cand), cand
        deps = production.analysis.pdg.dependents_of(cand.slice_iid)
        through_gep += bool(seqs) and any(d in geps for d, _kind in deps)
    if production.NAME == "chain":
        assert through_gep
