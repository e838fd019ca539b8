"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Iterator, List

import pytest

from repro.checkpoint.log import CheckpointLog
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.pmem.tx import TransactionManager
from repro.reactor import server as server_module
from repro.reactor.server import WorkerGate

#: a small linked-list key-value program used by many compiler/analysis
#: tests — large enough to exercise loops, calls, structs and PM flows
KV_STRUCTS = {
    "kvroot": ["kv_count", "kv_head"],
    "kvnode": ["kn_key", "kn_value", "kn_next"],
}

KV_SOURCE = '''
def kv_init():
    root = get_root()
    if root == 0:
        root = pm_alloc(sizeof("kvroot"))
        root.kv_count = 0
        root.kv_head = 0
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


def kv_delete(root, key):
    node = root.kv_head
    prev = 0
    while node != 0:
        if node.kn_key == key:
            if prev == 0:
                root.kv_head = node.kn_next
                persist(addr(root.kv_head), 1)
            else:
                prev.kn_next = node.kn_next
                persist(addr(prev.kn_next), 1)
            root.kv_count = root.kv_count - 1
            persist(addr(root.kv_count), 1)
            pm_free(node)
            return 1
        prev = node
        node = node.kn_next
    return 0


def kv_count(root):
    return root.kv_count


def __driver__():
    root = kv_init()
    kv_put(root, 1, 2)
    kv_get(root, 1)
    kv_delete(root, 1)
    kv_count(root)
    return 0
'''


@pytest.fixture
def pool():
    return PMPool(4096, name="testpool")


@pytest.fixture
def allocator(pool):
    return PMAllocator(pool)


@pytest.fixture
def txman(pool):
    return TransactionManager(pool)


@pytest.fixture(scope="session")
def kv_module():
    return compile_module("kv", KV_SOURCE, structs=KV_STRUCTS)


@pytest.fixture
def kv_machine(kv_module):
    return Machine(kv_module, pool_size=4096)


@pytest.fixture
def cloned_logs(monkeypatch):
    """Every :class:`CheckpointLog` the test clones, in call order."""
    cloned = []
    clone = CheckpointLog.clone

    def spy(log):
        cloned.append(log)
        return clone(log)

    monkeypatch.setattr(CheckpointLog, "clone", spy)
    return cloned


@pytest.fixture
def gates(monkeypatch) -> Iterator[List[WorkerGate]]:
    """Every gate :func:`repro.reactor.server.run_gated` builds, closed
    at teardown so a worker leaked parked fails its test instead of
    hanging the session."""
    made: List[WorkerGate] = []

    class RecordingGate(WorkerGate):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    monkeypatch.setattr(server_module, "WorkerGate", RecordingGate)
    yield made
    for gate in made:
        gate.close()


@pytest.fixture(scope="session")
def arthas_bi_mitigation():
    """``run_experiment(fid, "arthas-bi", seed=0,
    consistency_probe=False).mitigation``, run once per fault per
    session: the production side both the VM-engine and the
    probe-engine equivalence tests compare their oracle run against."""
    from repro.harness.experiment import run_experiment

    runs = {}

    def mitigation(fid):
        if fid not in runs:
            runs[fid] = run_experiment(
                fid, "arthas-bi", seed=0, consistency_probe=False
            ).mitigation
        return runs[fid]

    return mitigation


@pytest.fixture
def f1_hang():
    """A memcached wedged by f1 (refcount wrap, reap, re-insert into the
    freed block) and the hang its probe raises, with no restart between:
    a plan over it has PM slice nodes on both sides of
    ``MAX_SLICE_DISTANCE``.  Returns ``(adapter, outcome)``."""
    from repro.detector.monitor import Detector
    from repro.systems.memcached import MemcachedAdapter

    mc = MemcachedAdapter()
    mc.start()
    for k in range(40):
        mc.insert(k, 900_000_000 + k)
    victim = 5
    while mc.call("mc_refcount", mc.root, victim) != 0:
        mc.lookup(victim)
    mc.reap()
    mc.insert(victim + (1 << 20), 1)
    outcome = Detector().observe(mc.machine, lambda: mc.lookup(victim + (1 << 21)))
    assert outcome.fault is not None and outcome.fault.kind == "hang"
    return mc, outcome


@pytest.fixture(scope="session")
def cluster_quick_report():
    """The cluster sweep's quick subset (the CI drift scope), shared by
    the cluster-sweep tests and the sweep-core drift tests."""
    from repro.harness.cluster_sweep import run_sweep

    return run_sweep(quick=True)


def compile_and_run(source, fname, *args, structs=None, pool_size=4096, seed=0):
    """Compile a one-off PMLang program and run one function."""
    module = compile_module("t", source, structs=structs or {})
    machine = Machine(module, pool_size=pool_size, seed=seed)
    return machine.call(fname, *args), machine
