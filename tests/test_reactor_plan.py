"""Tests for reversion-plan computation (slice x trace x log)."""

from repro.analysis import analyze_module
from repro.checkpoint.manager import CheckpointManager
from repro.detector.monitor import Detector
from repro.errors import Trap
from repro.instrument.passes import instrument_module
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine
from repro.reactor.plan import compute_plan, default_policy, distance_policy
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
    machine.tracer = trace.record
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


def test_distance_policy_orders_and_caps():
    module, analysis, guid_map, machine, manager, trace = _setup()
    root = machine.call("init")
    machine.call("poke", root, 1)
    detector = Detector()
    out = detector.observe(machine, lambda: machine.call("use", root))
    plan_default = compute_plan(
        analysis, guid_map, trace, manager.log, out.fault.iid,
        policy=default_policy,
    )
    plan_capped = compute_plan(
        analysis, guid_map, trace, manager.log, out.fault.iid,
        policy=distance_policy(max_distance=0),
    )
    assert len(plan_capped.candidates) <= len(plan_default.candidates)
    # seqs unique in both
    for plan in (plan_default, plan_capped):
        seqs = plan.seqs()
        assert len(seqs) == len(set(seqs))


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
    machine.tracer = trace.record
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
