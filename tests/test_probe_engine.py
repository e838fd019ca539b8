"""The incremental probe engine vs the full-restore snapshot oracle.

``Reverter.mitigate_bisect`` moves between probe points with dirty-word
epoch deltas (``_DeltaProbeEngine``); the seed behaviour — full pool
restore + prefix replay per probe — survives as
``tests.oracles.SnapshotProbeEngine``, patched in over the production
engine here.  The two must be *indistinguishable* from outside:
identical MitigationResult fields and byte-identical durable state,
across the synthetic bench states and all twelve real fault experiments.

The perf test pins the reason the incremental engine exists: restoring a
50k-word pool by rewriting only the dirty words must beat rewriting the
whole image.
"""

import time
from contextlib import contextmanager

import pytest

from repro.harness.experiment import run_experiment
from repro.pmem.snapshot import restore_snapshot, take_snapshot
from repro.reactor.revert import Reverter, _NullClock
from tests.oracles import SnapshotProbeEngine
from tests.synth_state import build_synthetic_state

FIDS = [f"f{i}" for i in range(1, 13)]

ENGINES = ("incremental", "snapshot")


@contextmanager
def probe_engine(monkeypatch, engine):
    """Run bisect on the production engine or on the snapshot oracle."""
    with monkeypatch.context() as m:
        if engine == "snapshot":
            m.setattr(
                "repro.reactor.revert._DeltaProbeEngine", SnapshotProbeEngine
            )
        yield


# ----------------------------------------------------------------------
# equivalence: every observable of the two engines matches
# ----------------------------------------------------------------------
def _mitigate(monkeypatch, engine, n_updates=800, seed=0, **kwargs):
    state = build_synthetic_state(n_updates, seed=seed)
    reverter = Reverter(
        state.log, state.pool, state.allocator, state.reexec(), **kwargs
    )
    with probe_engine(monkeypatch, engine):
        result = reverter.mitigate_bisect(state.make_plan())
    return state, result


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_engines_equivalent_on_synthetic_state(seed, monkeypatch):
    images, results = [], []
    for engine in ENGINES:
        state, result = _mitigate(monkeypatch, engine, seed=seed)
        assert result.recovered, engine
        images.append(state.durable_image())
        results.append(result)
    a, b = results
    assert images[0] == images[1]
    assert (a.attempts, a.reverted_seqs, a.recovered, a.notes) == (
        b.attempts, b.reverted_seqs, b.recovered, b.notes
    )


@pytest.mark.parametrize("fid", FIDS)
def test_engines_equivalent_on_real_faults(
    fid, monkeypatch, arthas_bi_mitigation
):
    """Both engines end every real experiment in the same final state.

    ``pool_digest`` fingerprints the durable image + allocator metadata,
    so digest equality is byte-level state equality.  The consistency
    probe is skipped: the digest is taken before it and the probe roughly
    doubles the runtime.  The incremental side is the session's shared
    production run.
    """
    a = arthas_bi_mitigation(fid)
    with probe_engine(monkeypatch, "snapshot"):
        b = run_experiment(
            fid, "arthas-bi", seed=0, consistency_probe=False,
        ).mitigation
    assert a is not None and b is not None
    assert a.recovered and b.recovered
    assert a.pool_digest == b.pool_digest
    assert (a.attempts, a.reverted_updates, a.notes) == (
        b.attempts, b.reverted_updates, b.notes
    )


# ----------------------------------------------------------------------
# memoization: no probe point is ever re-executed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_bisect_reexecutes_each_probe_point_once(engine, monkeypatch):
    state = build_synthetic_state(800, seed=0)
    inner = state.reexec()
    calls = []

    def counting_reexec():
        calls.append(1)
        return inner()

    reverter = Reverter(
        state.log, state.pool, state.allocator, counting_reexec
    )
    with probe_engine(monkeypatch, engine):
        result = reverter.mitigate_bisect(state.make_plan())
    assert result.recovered
    # one re-execution per attempt; the final probe(best) that lands the
    # pool on the winning state is a memo hit and must not re-execute
    assert len(calls) == result.attempts


# ----------------------------------------------------------------------
# the duration accounting bug (the seed's literal `+ 0.0`)
# ----------------------------------------------------------------------
def test_duration_includes_reexec_delays():
    state = build_synthetic_state(600, seed=0)
    clock = _NullClock()
    reverter = Reverter(
        state.log, state.pool, state.allocator, state.reexec(),
        clock=clock, reexec_delay=lambda: 4.0,
    )
    result = reverter.mitigate_bisect(state.make_plan())
    assert result.recovered
    # every attempt advanced the clock by the re-execution delay; the
    # seed charged the clock but added a literal 0.0 to the result, so
    # Fig. 8 durations missed the dominant term entirely
    assert result.duration_seconds >= 4.0 * result.attempts
    assert result.duration_seconds == pytest.approx(clock.now)


def test_duration_covers_only_own_run_on_shared_clock():
    state = build_synthetic_state(600, seed=0)
    clock = _NullClock()
    clock.advance(1000.0)  # a previous strategy already burned time
    reverter = Reverter(
        state.log, state.pool, state.allocator, state.reexec(),
        clock=clock, reexec_delay=lambda: 4.0,
        timeout_seconds=10_000.0,
    )
    start = clock.now
    result = reverter.mitigate_bisect(state.make_plan())
    assert result.recovered
    assert result.duration_seconds == pytest.approx(clock.now - start)
    assert result.duration_seconds < 1000.0


# ----------------------------------------------------------------------
# perf: dirty-word restore beats the full-image restore
# ----------------------------------------------------------------------
def test_dirty_word_restore_beats_full_restore_at_scale():
    """At a 50k-word image with a ~100-word delta, epoch undo must win.

    The margin demanded (2x) is tiny against the observed ratio
    (hundreds of x) — this trips only if someone reimplements epoch undo
    as a full-image rewrite.
    """
    from repro.pmem.pool import PM_BASE, PMPool

    n_words, n_dirty, reps = 50_000, 100, 20
    pool = PMPool(n_words + 1024, name="perfpin")
    for i in range(n_words):
        pool.durable_write(PM_BASE + i, i + 1)

    snap = take_snapshot(pool)
    t0 = time.perf_counter()
    for _ in range(reps):
        for i in range(n_dirty):
            pool.durable_write(PM_BASE + i * 7, 0xBEEF)
        restore_snapshot(pool, snap)
    full_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(reps):
        tok = pool.open_epoch()
        for i in range(n_dirty):
            pool.durable_write(PM_BASE + i * 7, 0xBEEF)
        pool.epoch_undo(tok)
    epoch_seconds = time.perf_counter() - t0

    assert pool.durable_items() == snap.durable
    assert epoch_seconds * 2 < full_seconds, (
        f"epoch undo {epoch_seconds:.4f}s vs full restore "
        f"{full_seconds:.4f}s — dirty-word restore regressed"
    )
