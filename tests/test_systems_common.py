"""Tests for the shared SystemAdapter scaffolding."""

from repro.systems.common import SystemAdapter
from repro.systems.memcached import MemcachedAdapter
from repro.systems.pmemkv import PmemkvAdapter


def test_static_artifacts_cached_per_class():
    a = MemcachedAdapter()
    b = MemcachedAdapter()
    assert a.module is b.module
    assert a.analysis is b.analysis
    assert a.guid_map is b.guid_map


def test_instances_have_independent_pools():
    a = MemcachedAdapter()
    b = MemcachedAdapter()
    a.start()
    b.start()
    a.insert(1, 111)
    assert b.lookup(1) == -1


def test_tracing_and_checkpoint_toggles():
    vanilla = MemcachedAdapter(with_tracing=False, with_checkpoint=False)
    vanilla.start()
    vanilla.insert(1, 1)
    assert vanilla.trace is None
    assert vanilla.ckpt is None

    ckpt_only = MemcachedAdapter(with_tracing=False, with_checkpoint=True)
    ckpt_only.start()
    ckpt_only.insert(1, 1)
    assert ckpt_only.trace is None
    assert ckpt_only.ckpt.log.total_updates > 0

    traced = MemcachedAdapter(with_tracing=True, with_checkpoint=False)
    traced.start()
    traced.insert(1, 1)
    traced.trace.flush()
    assert len(traced.trace) > 0
    assert traced.trace.pairs()


def test_restart_counts_and_reseeds():
    a = PmemkvAdapter(seed=5)
    a.start()
    assert a.restarts == 0
    machine_before = a.machine
    a.restart()
    assert a.restarts == 1
    assert a.machine is not machine_before


def test_restart_drops_unpersisted_guest_state():
    a = PmemkvAdapter()
    a.start()
    a.insert(1, 11)
    # a buffered (never persisted) stray write must not survive
    a.pool.write(a.root + 2, 424242)
    a.restart()
    a.recover()
    assert a.lookup(1) == 11
    assert a.pool.read(a.root + 2) != 424242


def test_recover_traces_addresses_only_when_tracing():
    a = PmemkvAdapter(with_tracing=False)
    a.start()
    a.insert(1, 11)
    a.restart()
    assert a.recover() == set()

    b = PmemkvAdapter(with_tracing=True)
    b.start()
    b.insert(1, 11)
    b.restart()
    touched = b.recover()
    assert touched
    assert all(b.pool.contains(addr) for addr in touched)


def test_base_class_interface_is_abstract():
    import pytest

    base = SystemAdapter.__new__(SystemAdapter)
    with pytest.raises(NotImplementedError):
        base.insert(1, 1)
    with pytest.raises(NotImplementedError):
        base.lookup(1)
    with pytest.raises(NotImplementedError):
        base.delete(1)
    with pytest.raises(NotImplementedError):
        base.count_items()
    assert base.consistency_violations() == []
    assert base.expected_item_words() == 0
