"""Live-traffic recovery server: quarantine scoping and serving safety.

The server's contract (see ``repro/reactor/server.py``) is that serving
traffic *through* a mitigation window must be invisible in the durable
state — the pool digest after mitigation is byte-identical whether the
stream kept flowing or the server quiesced — and that no request served
during a window ever observes a mid-rollback value, because window
reads come from the view (oracle snapshot + deferred-write overlay) and
never touch the pool.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.faultinject import InjectionPlan, InjectionSpec
from repro.reactor.server import KeyTouchIndex, LiveRecoveryServer, RangeLockTable
from repro.workloads.ycsb import zipf_keys

#: small-but-real serving config used by every server test: the stream
#: is long enough to cross trigger -> detection -> mitigation -> release
#: and short enough to keep the suite fast.  The arrival period is
#: deliberately unsustainable — correctness is keyed to request *index*,
#: never to wall time, so a backlogged loop must change nothing.
CONFIG = dict(keyspace=128, detect_every=8, release_after=96)
N_REQUESTS = 240
PERIOD = 0.0005

ALL_FIDS = [f"f{i}" for i in range(1, 13)]


def _run(fid: str, mode: str, **kw) -> LiveRecoveryServer:
    server = LiveRecoveryServer(fid, mode=mode, seed=0, **CONFIG, **kw)
    server.report = server.run_sync(N_REQUESTS, arrival_period_s=PERIOD)
    return server


# ----------------------------------------------------------------------
# range-lock table + key join
# ----------------------------------------------------------------------
def test_range_lock_table_merges_overlapping_ranges():
    table = RangeLockTable()
    table.lock(10, 20)
    table.lock(40, 50)
    assert table.ranges() == ((10, 20), (40, 50))
    table.lock(15, 45)  # bridges both
    assert table.ranges() == ((10, 50),)
    assert len(table) == 1
    assert table.locked_words == 40


def test_range_lock_table_covers_and_overlaps():
    table = RangeLockTable()
    table.lock(100, 110)
    assert table.covers(100) and table.covers(109)
    assert not table.covers(99) and not table.covers(110)
    assert table.overlaps(105, 200)
    assert table.overlaps(90, 101)
    assert not table.overlaps(110, 120)  # half-open: no touch
    table.clear()
    assert table.ranges() == () and table.locked_words == 0


def test_key_touch_index_skips_structural_words():
    index = KeyTouchIndex()
    for key in range(10):
        # every key writes the shared word 1000 plus its own block
        index.note(key, {1000, 2000 + key * 4})
    keys = index.keys_in_ranges([(999, 2100)], structural_threshold=4)
    # the shared word nominates nobody; the per-key blocks still do
    assert keys == set(range(10))
    all_keys = index.keys_in_ranges([(999, 1001)], structural_threshold=None)
    assert all_keys == set(range(10))
    none = index.keys_in_ranges([(999, 1001)], structural_threshold=4)
    assert none == set()


# ----------------------------------------------------------------------
# zipf CDF cache
# ----------------------------------------------------------------------
@pytest.mark.parametrize("keyspace,theta", [(64, 0.9), (512, 0.99), (32, 0.0)])
def test_zipf_cache_draws_identical_keys(keyspace, theta):
    for seed in (0, 7, 123):
        cached = zipf_keys(500, keyspace, theta, seed)
        fresh = zipf_keys(500, keyspace, theta, seed, use_cache=False)
        assert cached == fresh


# ----------------------------------------------------------------------
# digest determinism: live stream vs quiesced mitigation
# ----------------------------------------------------------------------
def test_live_stream_digest_matches_quiesced_mitigation():
    live = _run("f1", "quarantine")
    quiesced = _run("f1", "quiesced")
    assert live.mitigation_runs and quiesced.mitigation_runs
    assert live.digest_after_mitigation == quiesced.digest_after_mitigation
    assert live.report["final_digest"] == quiesced.report["final_digest"]
    assert not live._unavailable and not quiesced._unavailable


def test_injected_crash_mid_mitigation_live_vs_quiesced():
    # the mitigation worker crashes at the first reversion cut; the
    # crash-retry supervisor restarts it.  A live stream through the
    # crashed-and-retried window must still land on the quiesced digest.
    def plan():
        return InjectionPlan([InjectionSpec("revert.cut", 1, "crash")])

    live = _run("f1", "quarantine", inject_plan=plan())
    quiesced = _run("f1", "quiesced", inject_plan=plan())
    assert live.mitigation_runs and quiesced.mitigation_runs
    assert live.mitigation_runs[0].recovered
    assert live.digest_after_mitigation == quiesced.digest_after_mitigation


# ----------------------------------------------------------------------
# no mid-rollback values: window serving never reads the pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fid", ALL_FIDS)
def test_no_mid_rollback_value_observed(fid):
    server = LiveRecoveryServer(fid, mode="quarantine", seed=0, **CONFIG)

    # spy on the only keyed pool-read path the serving loop could use
    loop_ident = threading.get_ident()
    pool_reads = []
    orig_lookup = server.adapter.lookup

    def spying_lookup(key):
        pool_reads.append((time.perf_counter(), threading.get_ident(), key))
        return orig_lookup(key)

    server.adapter.lookup = spying_lookup
    server.run_sync(N_REQUESTS, arrival_period_s=PERIOD)

    if not server._windows:
        # scenario never manifested under this stream (e.g. silent-loss
        # faults): nothing was served through a window, nothing to check
        assert not any(r.during_mitigation for r in server.records)
        return

    # (a) the event loop never read the pool while a window was open —
    # every in-window lookup belongs to the mitigation worker thread
    for when, ident, _key in pool_reads:
        if any(s <= when <= e for s, e in server._windows):
            assert ident != loop_ident, (
                "serving loop read the pool mid-mitigation"
            )

    # (b) every OK response during the (single) window is explainable
    # without the pool: the pre-window view value or an earlier deferred
    # write in the same window (read-your-writes) — never anything else,
    # so never an intermediate rollback state
    if len(server._windows) == 1:
        win_writes = {}
        for rec in sorted(server.records, key=lambda r: r.index):
            if not rec.during_mitigation:
                continue
            if rec.status == "deferred":
                win_writes[rec.key] = rec.value  # -1 for a DELETE
            elif rec.kind == "GET" and rec.status == "ok":
                expected = win_writes.get(
                    rec.key, server.view_snapshot.get(rec.key, -1)
                )
                assert rec.value == expected, (
                    f"{fid}: GET({rec.key}) saw {rec.value}, "
                    f"expected {expected}"
                )

    # (c) quarantined responses only ever name quarantined keys, and
    # carry a usable retry hint
    for rec in server.records:
        if rec.status == "quarantined":
            assert rec.key in server.quarantined_keys
            assert rec.retry_after_s >= 0.0


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------
def test_report_surfaces_reactor_accounting_and_budget():
    server = _run("f1", "quarantine")
    report = server._report(N_REQUESTS, PERIOD, 0.0)
    assert report["reactor"]["plan_requests"] >= 1
    assert report["mitigation"]["reactor_requests"] >= 1
    assert report["mitigation"]["analysis_seconds"] > 0.0
    budget = report["error_budget"]
    assert budget["burned"] == (
        budget["quarantined_responses"]
        + budget["fault_responses"]
        + budget["unavailable_responses"]
    )
    assert len(report["quarantine"]["stream_keys"]) < server.keyspace
