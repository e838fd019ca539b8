"""Tests for on-disk artifact round-trips and offline mitigation."""

from repro.detector.monitor import Detector
from repro.instrument.artifacts import (
    load_checkpoint_log,
    load_trace,
    save_checkpoint_log,
    save_trace,
)
from repro.instrument.guids import GuidMap
from repro.instrument.tracer import PMTrace
from repro.reactor.plan import compute_plan
from repro.reactor.revert import Reverter
from repro.systems.memcached import MemcachedAdapter


def test_trace_roundtrip(tmp_path):
    trace = PMTrace()
    trace.record("g2", 200)
    trace.record("g1", 100)
    trace.record("g2", 200)
    path = str(tmp_path / "trace.json")
    # the file holds the distinct pairs, sorted
    assert save_trace(trace, path) == 2
    loaded = load_trace(path)
    assert loaded.pairs() == [("g1", 100), ("g2", 200)]
    assert sorted(loaded.pairs()) == sorted(trace.pairs())
    assert len(loaded) == 2
    assert loaded.addresses_for_guid("g1") == {100}
    assert loaded.addresses_for_guid("g2") == {200}


def test_checkpoint_log_roundtrip(tmp_path):
    mc = MemcachedAdapter()
    mc.start()
    for k in range(25):
        mc.insert(k, k)
    mc.delete(3)
    path = str(tmp_path / "ckpt.json")
    save_checkpoint_log(mc.ckpt.log, path)
    loaded = load_checkpoint_log(path)
    original = mc.ckpt.log
    assert loaded.max_seq() == original.max_seq()
    assert loaded.total_updates == original.total_updates
    assert set(loaded.entries) == set(original.entries)
    some_addr = next(iter(original.entries))
    assert (
        [v.seq for v in loaded.entries[some_addr].versions]
        == [v.seq for v in original.entries[some_addr].versions]
    )
    assert loaded.live_unfreed_allocs() == original.live_unfreed_allocs()
    assert loaded.tx_members == original.tx_members


def test_offline_mitigation_from_saved_artifacts(tmp_path):
    """The reactor can run against artifacts written before the failure —
    the paper's cross-process workflow."""
    mc = MemcachedAdapter()
    mc.start()
    for k in range(40):
        mc.insert(k, 900_000_000 + k)
    # poison (f1) and capture the artifacts, as the running system would
    victim = 5
    while mc.call("mc_refcount", mc.root, victim) != 0:
        mc.lookup(victim)
    mc.reap()
    mc.insert(victim + (1 << 20), 1)
    guid_path = str(tmp_path / "guids.json")
    trace_path = str(tmp_path / "trace.json")
    log_path = str(tmp_path / "ckpt.json")
    mc.guid_map.save(guid_path)
    save_trace(mc.trace, trace_path)
    save_checkpoint_log(mc.ckpt.log, log_path)

    detector = Detector()
    probe = victim + (1 << 21)
    outcome = detector.observe(mc.machine, lambda: mc.lookup(probe))
    assert not outcome.ok

    # the reactor reloads everything from disk
    guid_map = GuidMap.load(guid_path)
    trace = load_trace(trace_path)
    log = load_checkpoint_log(log_path)
    plan = compute_plan(mc.analysis, guid_map, trace, log, outcome.fault.iid)
    assert not plan.empty

    def reexec():
        mc.restart()
        return detector.observe(
            mc.machine, lambda: (mc.recover(), mc.lookup(probe))
        )

    reverter = Reverter(log, mc.pool, mc.allocator, reexec=reexec)
    result = reverter.mitigate_purge(plan)
    assert result.recovered
