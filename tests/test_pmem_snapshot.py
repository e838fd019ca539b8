"""Tests for whole-pool snapshot/restore (the pmCRIU substrate) and
the pool's dirty-word epochs (the incremental-probe substrate)."""

import pytest

from repro.errors import PoolError
from repro.pmem.pool import PM_BASE
from repro.pmem.snapshot import restore_snapshot, take_snapshot
from repro.reactor.revert import _ProbeDelta


def test_snapshot_restore_roundtrip(pool, allocator):
    a = allocator.zalloc(4)
    pool.write(a, 7)
    pool.persist(a, 1)
    snap = take_snapshot(pool, allocator, taken_at=12.5, label="ckpt1")
    pool.write(a, 99)
    pool.persist(a, 1)
    b = allocator.zalloc(4)
    restore_snapshot(pool, snap, allocator)
    assert pool.read(a) == 7
    assert allocator.is_allocated(a)
    assert not allocator.is_allocated(b)
    assert snap.taken_at == 12.5
    assert snap.label == "ckpt1"


def test_snapshot_excludes_unpersisted_writes(pool, allocator):
    a = allocator.zalloc(2)
    pool.write(a, 5)  # buffered only
    snap = take_snapshot(pool, allocator)
    pool.crash()
    restore_snapshot(pool, snap, allocator)
    assert pool.read(a) == 0


def test_snapshot_size_counts_nonzero_words(pool):
    pool.durable_write(PM_BASE + 1, 5)
    pool.durable_write(PM_BASE + 2, 6)
    snap = take_snapshot(pool)
    assert snap.size_words() == 2


def test_restore_clears_later_state(pool):
    snap = take_snapshot(pool)
    pool.durable_write(PM_BASE + 3, 9)
    restore_snapshot(pool, snap)
    assert pool.read(PM_BASE + 3) == 0


# ----------------------------------------------------------------------
# dirty-word epochs (the incremental-probe substrate)
# ----------------------------------------------------------------------


def test_epoch_snapshot_restores_only_dirty_words(pool, allocator):
    a = allocator.zalloc(8)
    for i in range(8):
        pool.write(a + i, 10 + i)
    pool.persist(a, 8)
    token = pool.open_epoch()
    # mutate a small subset; the epoch only tracks those words
    pool.write(a + 2, 999)
    pool.persist(a + 2, 1)
    pool.durable_write(a + 5, 888)
    restored = pool.epoch_undo(token)
    assert restored == 2
    assert [pool.read(a + i) for i in range(8)] == list(range(10, 18))
    with pytest.raises(PoolError):
        pool.epoch_undo(token)  # undo closed the epoch


def test_epoch_restore_matches_full_snapshot_restore(pool, allocator):
    """Epoch undo and full restore leave *identical* durable dicts —
    including the absent-vs-explicit-zero distinction."""
    a = allocator.zalloc(6)
    pool.durable_write(a, 1)
    pool.durable_write(a + 1, 0)  # explicit zero entry stays an entry
    full = take_snapshot(pool, allocator)
    epoch = pool.open_epoch()
    pool.durable_write(a, 7)
    pool.durable_write(a + 1, 7)
    pool.durable_write(a + 2, 7)  # previously absent
    pool.epoch_undo(epoch)
    after_epoch = pool.durable_items()
    pool.durable_write(a, 7)
    pool.durable_write(a + 1, 7)
    pool.durable_write(a + 2, 7)
    restore_snapshot(pool, full, allocator)
    assert pool.durable_items() == after_epoch


def test_epoch_undo_is_lifo_only(pool):
    outer = pool.open_epoch()
    inner = pool.open_epoch()
    with pytest.raises(PoolError):
        pool.epoch_undo(outer)
    pool.epoch_undo(inner)
    pool.epoch_undo(outer)
    with pytest.raises(PoolError):
        pool.epoch_undo(outer)  # already closed


def test_nested_epoch_undo_restores_each_level(pool):
    addr = PM_BASE + 10
    pool.durable_write(addr, 1)
    outer = pool.open_epoch()
    pool.durable_write(addr, 2)
    inner = pool.open_epoch()
    pool.durable_write(addr, 3)
    pool.epoch_undo(inner)
    assert pool.read(addr) == 2
    pool.epoch_undo(outer)
    assert pool.read(addr) == 1


def test_epoch_undo_keep_open_continues_tracking(pool):
    addr = PM_BASE + 20
    tok = pool.open_epoch()
    pool.durable_write(addr, 5)
    pool.epoch_undo(tok, close=False)
    assert pool.read(addr) == 0
    pool.durable_write(addr, 6)
    assert pool.epoch_undo(tok) == 1
    assert pool.read(addr) == 0


def test_epoch_snapshot_captures_allocator_meta(pool, allocator):
    # a probe delta pairs an epoch with the allocator metadata as it
    # stood when the delta opened, captured on the first mutation
    a = allocator.zalloc(4)
    delta = _ProbeDelta(pool, allocator)
    assert delta.pre_meta is None
    b = allocator.zalloc(4)
    allocator.free(a)
    assert delta.pre_meta is not None
    delta.undo()
    assert allocator.is_allocated(a)
    assert not allocator.is_allocated(b)
