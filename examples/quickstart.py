"""Quickstart: write a PM program, break it, let Arthas fix it.

This walks the whole toolchain end to end on a 60-line PMLang program:

1. write a persistent key-value store in PMLang and compile it,
2. analyze it (points-to, PM classification, PDG) and instrument tracing,
3. run it with checkpointing attached,
4. persist a *bad* value (a logic bug corrupts a chain pointer),
5. detect the crash, slice the fault instruction, and revert exactly the
   bad update — the store works again with all other data intact.

Run:  python examples/quickstart.py
"""

from repro.analysis import analyze_module
from repro.checkpoint.manager import CheckpointManager
from repro.detector.monitor import Detector
from repro.instrument.passes import instrument_module
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine
from repro.reactor.plan import compute_plan
from repro.reactor.revert import Reverter

SOURCE = '''
def kv_init():
    root = get_root()
    if root == 0:
        root = pm_alloc(sizeof("kvroot"))
        root.kv_head = 0
        root.kv_count = 0
        persist(root, sizeof("kvroot"))
        set_root(root)
    return root


def kv_put(root, key, value):
    node = pm_alloc(sizeof("kvnode"))
    node.kn_key = key
    node.kn_value = value
    node.kn_next = root.kv_head
    persist(node, sizeof("kvnode"))
    root.kv_head = node
    root.kv_count = root.kv_count + 1
    persist(addr(root.kv_head), 1)
    persist(addr(root.kv_count), 1)
    return node


def kv_get(root, key):
    node = root.kv_head
    while node != 0:
        if node.kn_key == key:
            return node.kn_value
        node = node.kn_next
    return -1


def kv_corrupting_update(root, key, bogus):
    node = root.kv_head
    while node != 0:
        if node.kn_key == key:
            node.kn_next = bogus
            persist(addr(node.kn_next), 1)
            return 1
        node = node.kn_next
    return 0


def __driver__():
    root = kv_init()
    kv_put(root, 1, 2)
    kv_get(root, 1)
    kv_corrupting_update(root, 1, 0)
    return 0
'''

STRUCTS = {
    "kvroot": ["kv_head", "kv_count"],
    "kvnode": ["kn_key", "kn_value", "kn_next"],
}


def main():
    # 1. compile & 2. analyze + instrument (what the Arthas analyzer does)
    module = compile_module("quickstart", SOURCE, structs=STRUCTS)
    analysis = analyze_module(module)
    guid_map, _ = instrument_module(module, analysis.pm)
    print(f"compiled {module.instr_count()} IR instructions; "
          f"{len(analysis.pm.pm_instr_iids)} touch persistent memory; "
          f"PDG has {analysis.pdg.edge_count()} edges")

    # 3. run with the checkpoint library and tracing attached
    machine = Machine(module)
    manager = CheckpointManager(machine.pool, machine.allocator, machine.txman)
    manager.attach()
    trace = PMTrace()
    machine.trace = trace

    root = machine.call("kv_init")
    for k in range(10):
        machine.call("kv_put", root, k, 100 + k)
    print("stored 10 items; kv_get(7) =", machine.call("kv_get", root, 7))

    # 4. a logic bug persists a wild chain pointer (a Type-I hard fault)
    machine.call("kv_corrupting_update", root, 5, 999_999_999)

    # 5. the crash manifests, survives a restart, and gets mitigated
    detector = Detector()
    outcome = detector.observe(machine, lambda: machine.call("kv_get", root, 2))
    print(f"failure: {outcome.fault.kind} at {outcome.fault.location}")

    machine.crash()  # restart: the bad pointer is persistent
    recurrence = detector.observe(machine, lambda: machine.call("kv_get", root, 2))
    print("recurs after restart:",
          detector.is_potential_hard_failure(recurrence.signature))

    plan = compute_plan(analysis, guid_map, trace, manager.log,
                        outcome.fault.iid)
    print(f"reversion plan: {len(plan.candidates)} candidate updates "
          f"(slice: {plan.slice_size} nodes, {plan.pm_slice_size} PM nodes)")

    def reexec():
        machine.crash()
        return detector.observe(
            machine, lambda: machine.call("kv_get", root, 2)
        )

    reverter = Reverter(manager.log, machine.pool, machine.allocator,
                        reexec=reexec)
    result = reverter.mitigate_purge(plan)
    print(f"recovered: {result.recovered} after {result.attempts} attempt(s), "
          f"discarding {result.discarded_updates} of "
          f"{manager.log.total_updates} checkpointed updates")

    survivors = sum(
        1 for k in range(10) if machine.call("kv_get", root, k) == 100 + k
    )
    print(f"{survivors}/10 items intact after recovery")
    assert result.recovered and survivors >= 9


if __name__ == "__main__":
    main()
