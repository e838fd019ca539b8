"""Tests for the versioned checkpoint log and its manager."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.log import CheckpointLog
from repro.checkpoint.manager import CheckpointManager
from repro.errors import CheckpointError
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PM_BASE, PMPool
from repro.pmem.tx import TransactionManager
from tests.oracles.checkpoint import structural_digest


class TestLog:
    def test_update_creates_versions(self):
        log = CheckpointLog()
        s1 = log.record_update(100, 2, [1, 2])
        s2 = log.record_update(100, 2, [3, 4])
        entry = log.entries[100]
        assert [v.seq for v in entry.versions] == [s1, s2]
        assert entry.latest().data == (3, 4)

    def test_version_ring_evicts_oldest(self):
        log = CheckpointLog(max_versions=3)
        for i in range(5):
            log.record_update(100, 1, [i])
        entry = log.entries[100]
        assert len(entry.versions) == 3
        assert entry.total_versions == 5
        assert entry.history_evicted
        assert [v.data[0] for v in entry.versions] == [2, 3, 4]

    def test_value_count_mismatch_rejected(self):
        log = CheckpointLog()
        with pytest.raises(CheckpointError):
            log.record_update(100, 2, [1])

    def test_sequence_numbers_are_global_and_ordered(self):
        log = CheckpointLog()
        seqs = [
            log.record_update(100, 1, [1]),
            log.record_alloc(200, 4),
            log.record_free(200, 4),
            log.record_tx_begin(7),
            log.record_tx_commit(7),
        ]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_tx_membership(self):
        log = CheckpointLog()
        log.record_tx_begin(9)
        s1 = log.record_update(100, 1, [1], tx_id=9)
        s2 = log.record_update(104, 1, [2], tx_id=9)
        log.record_tx_commit(9)
        assert set(log.seqs_in_tx(9)) == {s1, s2}
        assert log.tx_of_seq(s1) == 9
        assert log.tx_of_seq(s2) == 9

    def test_entries_overlapping(self):
        log = CheckpointLog()
        log.record_update(100, 4, [1, 2, 3, 4])
        assert log.entries_overlapping(102)
        assert not log.entries_overlapping(104)
        assert log.update_seqs_for_address(101)

    def test_realloc_linking(self):
        log = CheckpointLog()
        log.record_update(100, 2, [1, 2])
        log.link_realloc(100, 300)
        assert log.entries[100].new_entry == 300
        assert log.entries[300].old_entry == 100

    def test_live_unfreed_allocs(self):
        log = CheckpointLog()
        log.record_alloc(100, 4)
        log.record_alloc(200, 4)
        log.record_free(100, 4)
        assert log.live_unfreed_allocs() == {200: 4}

    def test_events_after(self):
        log = CheckpointLog()
        s1 = log.record_alloc(100, 4)
        s2 = log.record_update(100, 1, [1])
        s3 = log.record_free(100, 4)
        s4 = log.record_tx_begin(7)
        assert [e.seq for e in log.events] == [s1, s2, s3, s4]
        # the rollback's allocator pass sees only alloc/free events
        assert [e.seq for e in log.alloc_free_events_after(s1)] == [s3]
        assert [e.kind for e in log.alloc_free_events_after(0)] == [
            "alloc", "free"
        ]


def _history(log, base, tx_id):
    """A short record stream touching every event kind and index."""
    for i in range(6):
        log.record_alloc(base + 8 * i, 4)
        log.record_update(base + 8 * i, 2, [tx_id, i])
    log.record_free(base, 4)
    log.record_tx_begin(tx_id)
    log.record_update(base + 8, 1, [tx_id], tx_id=tx_id)
    log.record_tx_commit(tx_id)


class TestClone:
    def test_clone_matches_source_at_capture(self):
        src = CheckpointLog()
        _history(src, PM_BASE, 1)  # left staged: clone() merges it
        dup = src.clone()
        assert structural_digest(dup) == structural_digest(src)
        assert dup.events == src.events

    def test_records_on_clone_leave_source_unchanged(self):
        src = CheckpointLog()
        _history(src, PM_BASE, 1)
        dup = src.clone()
        digest, events = structural_digest(src), src.events
        _history(dup, PM_BASE, 2)
        dup.flush_staging()
        assert structural_digest(src) == digest
        assert src.events == events

    def test_records_on_source_leave_clone_unchanged(self):
        src = CheckpointLog()
        _history(src, PM_BASE, 1)
        dup = src.clone()
        digest, events = structural_digest(dup), dup.events
        _history(src, PM_BASE, 2)
        src.flush_staging()
        assert structural_digest(dup) == digest
        assert dup.events == events


def _retained_per_event(tagged: bool) -> float:
    """Bytes a log retains per merged event over 12,500 transactions of
    four events each; ``tagged`` passes each update its tx id, as every
    guest transaction does."""
    n_tx = 12_500  # four events each: 50k merged events
    tracemalloc.start()
    try:
        log = CheckpointLog()
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n_tx):
            tx = i + 1
            tag = tx if tagged else 0
            log.record_tx_begin(tx)
            log.record_update(PM_BASE + i % 8, 1, [i], tx_id=tag)
            log.record_update(PM_BASE + 8 + i % 8, 1, [i], tx_id=tag)
            log.record_tx_commit(tx)
        log.flush_staging()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log.events) == 4 * n_tx
    if tagged:
        assert log.seqs_in_tx(n_tx) == [4 * n_tx - 2, 4 * n_tx - 1]
    return retained / (4 * n_tx)


def test_merged_event_retains_at_most_64_bytes():
    """The merged event stream holds column rows, not an object per event."""
    assert _retained_per_event(tagged=False) <= 64


def test_transactional_merged_event_retains_at_most_64_bytes():
    """Transaction membership is a seq range per transaction, not a
    list of seq ints (about 99 B per event retained with those)."""
    assert _retained_per_event(tagged=True) <= 64


class TestManager:
    def _stack(self):
        pool = PMPool(1024)
        allocator = PMAllocator(pool)
        txman = TransactionManager(pool)
        manager = CheckpointManager(pool, allocator, txman)
        manager.attach()
        return pool, allocator, txman, manager

    def test_persist_recorded_after_durability(self):
        pool, allocator, txman, manager = self._stack()
        a = allocator.zalloc(2)
        pool.write(a, 9)
        pool.persist(a, 1)
        entry = manager.log.entries[a]
        assert entry.latest().data == (9,)

    def test_unpersisted_write_not_recorded(self):
        pool, allocator, txman, manager = self._stack()
        a = allocator.zalloc(2)
        pool.write(a, 9)  # no persist
        assert a not in manager.log.entries

    def test_tx_commit_groups_entries(self):
        pool, allocator, txman, manager = self._stack()
        a = allocator.zalloc(4)
        tid = txman.begin()
        txman.add(a, 1)
        txman.add(a + 1, 1)
        pool.write(a, 1)
        pool.write(a + 1, 2)
        txman.commit()
        seqs = manager.log.seqs_in_tx(tid)
        assert len(seqs) == 2
        assert {manager.log.event(s).addr for s in seqs} == {a, a + 1}

    def test_alloc_free_realloc_events(self):
        pool, allocator, txman, manager = self._stack()
        a = allocator.zalloc(4)
        b = allocator.realloc(a, 8)
        allocator.free(b)
        kinds = [e.kind for e in manager.log.events]
        assert "alloc" in kinds and "free" in kinds
        assert manager.log.entries[b].old_entry == a

    def test_detach_stops_recording(self):
        pool, allocator, txman, manager = self._stack()
        a = allocator.zalloc(2)
        manager.detach()
        pool.write(a, 1)
        pool.persist(a, 1)
        assert a not in manager.log.entries


# ----------------------------------------------------------------------
# property: after arbitrary persisted updates, replaying the newest
# version of every log entry reproduces the durable image
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 6), st.integers(0, 1000)),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=80, deadline=None)
def test_log_reconstructs_durable_state(updates):
    pool = PMPool(1024)
    allocator = PMAllocator(pool)
    txman = TransactionManager(pool)
    manager = CheckpointManager(
        pool, allocator, txman, max_versions=10_000  # no eviction
    )
    manager.attach()
    base = PM_BASE + 64
    for off, n, val in updates:
        for i in range(n):
            pool.write(base + off + i, val + i)
        pool.persist(base + off, n)
    # reconstruct: newest version covering each word wins
    reconstructed = {}
    ordered = sorted(
        (v.seq, e.address, v)
        for e in manager.log.entries.values()
        for v in e.versions
    )
    for _seq, addr, version in ordered:
        for i, value in enumerate(version.data):
            reconstructed[addr + i] = value
    for addr in range(base, base + 64):
        assert pool.durable_read(addr) == reconstructed.get(addr, 0)
