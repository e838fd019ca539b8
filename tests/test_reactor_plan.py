"""Tests for reversion-plan computation (slice x trace x log)."""

from repro.analysis import analyze_module
from repro.analysis.slicing import slice_distances
from repro.checkpoint.manager import CheckpointManager
from repro.detector.monitor import Detector
from repro.errors import Trap
from repro.instrument.passes import instrument_module
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine
from repro.reactor.plan import _VALUE_FLOW_OPS, MAX_SLICE_DISTANCE, compute_plan
from repro.reactor.server import ReactorServer

#: a program where a bad persisted flag causes a later panic
SRC = '''
def init():
    root = get_root()
    if root == 0:
        root = pm_alloc(sizeof("st"))
        root.st_flag = 0
        root.st_data = 0
        persist(root, sizeof("st"))
        set_root(root)
    return root


def poke(root, v):
    root.st_flag = v
    persist(addr(root.st_flag), 1)
    return v


def set_data(root, v):
    root.st_data = v
    persist(addr(root.st_data), 1)
    return v


def use(root):
    assert_true(root.st_flag == 0, "bad flag")
    return root.st_data


def __driver__():
    root = init()
    poke(root, 0)
    set_data(root, 1)
    use(root)
    return 0
'''

STRUCTS = {"st": ["st_flag", "st_data"]}


def _setup():
    module = compile_module("p", SRC, structs=STRUCTS)
    analysis = analyze_module(module)
    guid_map, _ = instrument_module(module, analysis.pm)
    machine = Machine(module)
    manager = CheckpointManager(machine.pool, machine.allocator, machine.txman)
    manager.attach()
    trace = PMTrace()
    machine.trace = trace
    return module, analysis, guid_map, machine, manager, trace


def test_plan_finds_bad_flag_update():
    module, analysis, guid_map, machine, manager, trace = _setup()
    root = machine.call("init")
    machine.call("set_data", root, 5)
    machine.call("poke", root, 1)  # the bad persisted value
    detector = Detector()
    out = detector.observe(machine, lambda: machine.call("use", root))
    assert not out.ok
    plan = compute_plan(
        analysis, guid_map, trace, manager.log, out.fault.iid
    )
    assert not plan.empty
    flag_addr = root  # st_flag at offset 0
    assert any(c.addr == flag_addr for c in plan.candidates)
    # newest-first ordering: the bad poke is the newest flag update
    flag_cands = [c for c in plan.candidates if c.addr == flag_addr]
    entry = manager.log.entries[flag_addr]
    assert flag_cands[0].seq == entry.latest().seq


def test_plan_empty_when_fault_unrelated_to_pm():
    module, analysis, guid_map, machine, manager, trace = _setup()
    machine.call("init")
    plan = compute_plan(
        analysis, guid_map, PMTrace(), CheckpointLog_empty(), 0
    )
    assert plan.empty


def CheckpointLog_empty():
    from repro.checkpoint.log import CheckpointLog

    return CheckpointLog()


def test_plan_ranks_by_value_flow_then_distance_then_newest(f1_hang):
    """compute_plan's one order, on memcached's f1 hang: one candidate
    per seq, found through its best-ranked slice node — value-flow rank,
    then slice distance — and newest first among equals; no slice node
    farther than MAX_SLICE_DISTANCE contributes, although farther PM
    slice nodes reach logged updates."""
    mc, out = f1_hang
    analysis, log = mc.analysis, mc.ckpt.log
    plan = compute_plan(analysis, mc.guid_map, mc.trace, log, out.fault.iid)
    dist = slice_distances(analysis.pdg, out.fault.iid)

    def key(iid):
        flow = analysis.module.instr(iid).op in _VALUE_FLOW_OPS
        return (0 if flow else 1, dist[iid])

    # every slice node each logged seq is reachable through, cap or not
    reach = {}
    for iid in dist:
        if not analysis.pm.is_pm_instr(iid):
            continue
        for carrier in mc.guid_map.carriers(iid):
            for addr in mc.trace.addresses_for_guid(carrier):
                for seq in log.update_seqs_for_address(addr):
                    reach.setdefault(seq, set()).add(iid)
    best = {
        seq: min(key(i) for i in iids if dist[i] <= MAX_SLICE_DISTANCE)
        for seq, iids in reach.items()
        if any(dist[i] <= MAX_SLICE_DISTANCE for i in iids)
    }
    assert len(best) < len(reach), "the cap drops nothing here"
    assert plan.seqs() == sorted(best, key=lambda seq: (best[seq], -seq))
    assert [key(c.slice_iid) for c in plan.candidates] == [
        best[c.seq] for c in plan.candidates
    ]


def test_reactor_server_precomputes_analysis():
    module = compile_module("p2", SRC, structs=STRUCTS)
    server = ReactorServer(module)
    assert server.analysis_seconds > 0
    assert server.analysis_seconds == sum(server.analysis.timings.values())
    # handed a cached analysis, the server reports what the analysis
    # cost, not how long accepting it took
    cached = ReactorServer(module, server.analysis)
    assert cached.analysis_seconds == server.analysis_seconds
    machine = Machine(module)
    manager = CheckpointManager(machine.pool, machine.allocator, machine.txman)
    manager.attach()
    trace = PMTrace()
    machine.trace = trace
    analysis = server.analysis
    guid_map, _ = instrument_module(module, analysis.pm)
    root = machine.call("init")
    machine.call("poke", root, 1)
    detector = Detector()
    out = detector.observe(machine, lambda: machine.call("use", root))
    plan = server.compute_plan(guid_map, trace, manager.log, out.fault.iid)
    assert not plan.empty
    assert server.requests_served == 1
    assert plan.slicing_seconds >= 0
