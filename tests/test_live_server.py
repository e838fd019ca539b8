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
from typing import Iterator, List, Optional

import pytest

from repro.faultinject import InjectionPlan, InjectionSpec
from repro.harness import experiment
from repro.reactor import server as server_module
from repro.reactor.server import (
    KeyTouchIndex,
    LiveRecoveryServer,
    RangeLockTable,
    WorkerGate,
)
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
    server.report = server.run(N_REQUESTS, arrival_period_s=PERIOD)
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
    # the live run really served through the window, not stop-the-world
    end = live._windows[-1][1]
    assert any(
        r.during_mitigation and r.arrival_s + r.latency_s <= end
        for r in live.records
    )


@pytest.mark.parametrize("fid", ["f1", "f9"])
def test_scoped_window_answers_held_requests_before_mitigation_ends(fid):
    # every request is due before the window opens, so none arrives
    # after the quarantine is ready: held requests must be answered at
    # the worker's parks, not left for the post-window drain
    live = LiveRecoveryServer(fid, mode="quarantine", seed=0, **CONFIG)
    report = live.run(N_REQUESTS, arrival_period_s=0.0)
    quiesced = _run(fid, "quiesced")
    assert len(live._windows) == 1
    end = live._windows[0][1]
    during = [r for r in live.records if r.during_mitigation]
    late = [r for r in during if r.arrival_s + r.latency_s > end]
    assert during and not late, (
        f"{len(late)} of {len(during)} window requests answered after "
        "the window closed"
    )
    assert report["final_digest"] == quiesced.report["final_digest"]


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
    server.run(N_REQUESTS, arrival_period_s=PERIOD)

    if not server._windows:
        # scenario never manifested under this stream (e.g. silent-loss
        # faults): nothing was served through a window, nothing to check
        assert not any(r.during_mitigation for r in server.records)
        return

    # (a) the serving thread never read the pool while a window was open —
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


# ----------------------------------------------------------------------
# failure paths: an error on either side leaves no thread behind
# ----------------------------------------------------------------------
@pytest.fixture
def gates(monkeypatch) -> Iterator[List[WorkerGate]]:
    """Every gate the server builds, closed at teardown so a worker the
    server leaks parked fails its test instead of hanging the session."""
    made: List[WorkerGate] = []

    class RecordingGate(WorkerGate):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    monkeypatch.setattr(server_module, "WorkerGate", RecordingGate)
    yield made
    for gate in made:
        gate.close()


def _run_raising(server: LiveRecoveryServer) -> Optional[Exception]:
    """Run ``server`` on a daemon thread; return what it raised."""
    box = {}

    def serve() -> None:
        try:
            server.run(N_REQUESTS, arrival_period_s=0.0)
        except Exception as exc:  # noqa: BLE001 — handed to the test
            box["error"] = exc

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "the serving loop hung"
    return box.get("error")


def _mitigate_threads() -> List[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "mitigate"]


def test_mitigation_error_is_raised_and_leaves_no_worker(monkeypatch, gates):
    def fail(*_args, **_kwargs):
        raise RuntimeError("mitigation failed")

    monkeypatch.setattr(experiment, "mitigate_ladder", fail)
    server = LiveRecoveryServer("f1", mode="quarantine", seed=0, **CONFIG)
    error = _run_raising(server)
    assert isinstance(error, RuntimeError) and "mitigation failed" in str(error)
    assert len(gates) == 1
    assert not _mitigate_threads()


def test_serving_error_mid_window_leaves_no_worker(monkeypatch, gates):
    # arrival period 0: every request is held when the window opens, so
    # the first park after the quarantine is ready serves, and raises,
    # while the worker is parked
    server = LiveRecoveryServer("f1", mode="quarantine", seed=0, **CONFIG)

    def fail(*_args):
        raise RuntimeError("serving failed")

    monkeypatch.setattr(server, "_serve_during", fail)
    error = _run_raising(server)
    assert isinstance(error, RuntimeError) and "serving failed" in str(error)
    assert len(gates) == 1
    assert not _mitigate_threads()
