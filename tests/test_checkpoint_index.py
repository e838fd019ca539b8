"""Equivalence of the indexed checkpoint-log queries with the seed scans.

The log answers every reactor query from incrementally maintained
indexes (``repro.checkpoint.log``); ``tests.oracles.checkpoint`` keeps
the original linear-scan implementations verbatim.  These tests drive
randomized event streams — overlapping sub-range persists, version-ring
eviction, alloc/free churn, transactions, realloc links — through both
and require *identical* results, including list and dict ordering, since
mitigation outcomes depend on visit order.

The Reverter-level tests additionally run whole mitigations under the
production :class:`Reverter` and the :class:`LinearScanReverter` oracle
on identical synthetic pools and compare the final durable images word
for word; the plan test requires ``compute_plan`` (memoized slice,
indexed join) to rank the same candidate seqs as the seed plan join.

``test_hotpath_perf_regression`` is the wall-clock guard: planning and
mitigation over a 5k-update log must stay far under the (very generous)
ceiling, which the pre-index quadratic scans could not.
"""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.log import CheckpointLog
from repro.instrument.artifacts import load_checkpoint_log, save_checkpoint_log
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.reactor.plan import compute_plan
from repro.reactor.revert import Reverter
from tests.oracles import LinearScanReverter, reference_compute_plan
from tests.oracles import checkpoint as reference
from tests.synth_state import build_synthetic_state, plan_fixture, synthetic_trace

# a deliberately tiny address space so random streams collide: entries
# overlap, rings evict, frees cover probed words
_BASE = 0x200

_op = st.one_of(
    st.tuples(st.just("update"), st.integers(0, 40), st.integers(1, 4),
              st.booleans()),
    st.tuples(st.just("alloc"), st.integers(0, 40), st.integers(1, 4),
              st.booleans()),
    st.tuples(st.just("free"), st.integers(0, 40), st.integers(1, 4),
              st.booleans()),
    st.tuples(st.just("tx"), st.integers(1, 3), st.integers(1, 4),
              st.booleans()),
    st.tuples(st.just("realloc"), st.integers(0, 40), st.integers(0, 40),
              st.booleans()),
)


def _build_log(ops, max_versions=2):
    """Replay one random op stream through the record_* hooks."""
    log = CheckpointLog(max_versions=max_versions)
    tx = 0
    for kind, a, b, flag in ops:
        if kind == "update":
            values = [(a * 7 + i) % 251 for i in range(b)]
            log.record_update(_BASE + a, b, values, tx_id=tx if flag else 0)
        elif kind == "alloc":
            log.record_alloc(_BASE + a, b)
        elif kind == "free":
            log.record_free(_BASE + a, b)
        elif kind == "tx":
            tx += 1
            log.record_tx_begin(tx)
            for i in range(b):
                log.record_update(_BASE + a + i, 1, [i], tx_id=tx)
            log.record_tx_commit(tx)
        else:  # realloc
            log.link_realloc(_BASE + a, _BASE + b)
    return log


def _assert_queries_match(log):
    """Every indexed query equals its linear-scan reference, order included."""
    for addr in range(_BASE - 6, _BASE + 48):
        assert log.entries_overlapping(addr) == reference.entries_overlapping(
            log, addr
        )
        assert log.update_seqs_for_address(
            addr
        ) == reference.update_seqs_for_address(log, addr)
        assert log.expected_word(addr) == reference.expected_word(log, addr)
        assert log.newest_free_covering(addr) == reference.newest_free_covering(
            log, addr
        )
    by_seq = {ev.seq: ev for ev in log.events}
    for seq in range(0, log.max_seq() + 2):
        assert log.event(seq) == by_seq.get(seq)
        assert log.tx_of_seq(seq) == (by_seq[seq].tx_id if seq in by_seq else 0)
        assert log.alloc_free_events_after(
            seq
        ) == reference.alloc_free_events_after(log, seq)
        assert log.update_addrs_since(seq) == sorted(
            reference.update_addrs_since(log, seq),
            key=lambda a: log.entries[a].order,
        )
        # the reference visits entries in creation (dict-insertion) order
        # already, so the sort above must be the identity permutation
        assert log.update_addrs_since(seq) == reference.update_addrs_since(
            log, seq
        )
    live = log.live_unfreed_allocs()
    assert live == reference.live_unfreed_allocs(log)
    assert list(live) == list(reference.live_unfreed_allocs(log))


@given(ops=st.lists(_op, max_size=60))
@settings(max_examples=60, deadline=None)
def test_indexed_queries_match_reference(ops):
    _assert_queries_match(_build_log(ops))


@given(ops=st.lists(_op, max_size=60))
@settings(max_examples=30, deadline=None)
def test_rebuild_indexes_restores_equivalence(ops):
    """Wiping the derived indexes and rebuilding loses nothing."""
    log = _build_log(ops)
    log._size_class_addrs = {}
    log._entry_class = {}
    log._frees_by_addr = {}
    log._free_addrs = []
    log._live_allocs = {}
    log._max_free_size = 1
    for entry in log.entries.values():
        entry.max_size = 1
    log.rebuild_indexes()
    _assert_queries_match(log)


@given(ops=st.lists(_op, max_size=40))
@settings(max_examples=20, deadline=None)
def test_artifact_round_trip_preserves_queries(tmp_path_factory, ops):
    """Deserialized logs (which bypass record_*) answer identically."""
    log = _build_log(ops)
    path = str(tmp_path_factory.mktemp("ckpt") / "log.json")
    save_checkpoint_log(log, path)
    loaded = load_checkpoint_log(path)
    _assert_queries_match(loaded)
    for addr in range(_BASE - 2, _BASE + 44):
        assert loaded.update_seqs_for_address(
            addr
        ) == log.update_seqs_for_address(addr)


@given(ops=st.lists(_op, max_size=50),
       addr=st.integers(0, 40), size=st.integers(1, 6),
       cut=st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_plan_range_before_matches_reference(ops, addr, size, cut):
    """The windowed range reconstruction equals the full-scan one."""
    log = _build_log(ops)
    pool = PMPool(64, name="stub")
    alloc = PMAllocator(pool)
    fast = Reverter(log, pool, alloc, lambda: None)
    slow = LinearScanReverter(log, pool, alloc, lambda: None)
    assert fast._plan_range_before(_BASE + addr, size, cut) == \
        slow._plan_range_before(_BASE + addr, size, cut)


def test_mitigation_pool_state_identical_across_reverters():
    """purge/rollback/bisect leave byte-identical durable pools."""
    for seed in (0, 7):
        for mode in ("purge", "rollback", "bisect"):
            images = []
            for cls in (Reverter, LinearScanReverter):
                state = build_synthetic_state(600, seed=seed)
                reverter = cls(
                    state.log, state.pool, state.allocator, state.reexec()
                )
                result = getattr(reverter, "mitigate_" + mode)(
                    state.make_plan()
                )
                assert result.recovered, (mode, seed, cls.__name__)
                images.append(state.durable_image())
            assert images[0] == images[1], (mode, seed)


def test_rollback_matches_reference_on_synthetic_state():
    """rollback_to_before agrees seq-for-seq with the linear-scan body."""
    fast_state = build_synthetic_state(400, seed=3)
    slow_state = build_synthetic_state(400, seed=3)
    cut = fast_state.victim_seq
    fast = Reverter(
        fast_state.log, fast_state.pool, fast_state.allocator, lambda: None
    )
    slow = LinearScanReverter(
        slow_state.log, slow_state.pool, slow_state.allocator, lambda: None
    )
    assert sorted(fast.rollback_to_before(cut)) == sorted(
        slow.rollback_to_before(cut)
    )
    assert fast_state.durable_image() == slow_state.durable_image()


def _plan_inputs(n_updates, seed):
    """A synthetic log plus a fault slice traced onto its addresses."""
    state = build_synthetic_state(n_updates, seed=seed)
    analysis, guid_map, fault_iid = plan_fixture()
    trace = synthetic_trace(
        analysis, fault_iid, state.log, random.Random(seed + 1),
        addrs_per_guid=8,
    )
    return analysis, guid_map, trace, state.log, fault_iid


def test_plan_candidates_match_reference():
    """compute_plan ranks the same seqs as the seed join, memo hit or not."""
    for seed in (0, 7):
        analysis, guid_map, trace, log, fault_iid = _plan_inputs(2_000, seed)
        for _ in range(2):
            plan = compute_plan(analysis, guid_map, trace, log, fault_iid)
            ref = reference_compute_plan(
                analysis, guid_map, trace, log, fault_iid
            )
            assert plan.candidates, seed
            assert [c.seq for c in plan.candidates] == [
                c.seq for c in ref.candidates
            ], seed


def test_hotpath_perf_regression():
    """A 5k-update plan + full mitigation stays well under the ceiling.

    The indexed paths finish this in tens of milliseconds; the ceiling is
    ~100x slack for slow CI machines.  The pre-index linear scans took
    roughly a second for mitigation alone and would trip it on any
    machine if reintroduced.  Planning runs four rounds, the most the
    detector/reactor loop re-plans one fault per mode.
    """
    start = time.perf_counter()
    analysis, guid_map, trace, log, fault_iid = _plan_inputs(5_000, 0)
    build_seconds = time.perf_counter() - start
    analysis.pdg._dist_cache.clear()
    start = time.perf_counter()
    for _ in range(4):
        compute_plan(analysis, guid_map, trace, log, fault_iid)
    for mode in ("purge", "rollback", "bisect"):
        fresh = build_synthetic_state(5_000, seed=0)
        rv = Reverter(fresh.log, fresh.pool, fresh.allocator, fresh.reexec())
        result = getattr(rv, "mitigate_" + mode)(fresh.make_plan())
        assert result.recovered
    hot_seconds = time.perf_counter() - start
    assert hot_seconds < 5.0, (
        f"indexed plan + mitigation took {hot_seconds:.2f}s on a 5k-update "
        f"log (state build: {build_seconds:.2f}s) — hot-path regression"
    )
