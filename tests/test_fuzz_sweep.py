"""The crash-consistency fuzzer and its injection-layer foundations.

Four layers gate the f13+ fault families:

* **plan soundness** — duplicate (site, occurrence) specs raise instead
  of silently making ``all_fired`` unreachable; ``observe`` consumes
  specs so the coverage signal is exact;
* **skip semantics** — ``skip-flush`` elides the staging (the store
  stays cache-only and dies at power loss), ``skip-fence`` elides the
  drain (staged lines survive until a *later* fence persists them) —
  the WITCHER missing-flush / persist-ordering classes;
* **invariant probe** — a quiescent guest with skipped persists shows
  at-risk words, a clean one does not;
* **determinism** — the same sweep seed reproduces byte-identical
  registry entries, the contract behind the committed report and the
  CI drift check.
"""

from __future__ import annotations

import pytest

from repro import faultinject
from repro.faultinject import (
    FUZZ_KINDS,
    FUZZ_SITES,
    InjectionPlan,
    InjectionSpec,
    _sample_occurrences,
    kind_applies,
)
from repro.faults.fuzzed import FUZZED_FAULT_SPECS, FuzzedScenario
from repro.harness.fuzz_sweep import (
    QUICK_TRIALS,
    fuzz_system,
    render_registry_block,
)
from repro.pmem.persist import probe_persistence
from repro.pmem.pool import PM_BASE, PMPool


# ----------------------------------------------------------------------
# InjectionPlan: duplicate rejection + consume semantics (the bugfix)
# ----------------------------------------------------------------------
class TestInjectionPlanConsume:
    def test_duplicate_site_occurrence_raises(self):
        specs = [
            InjectionSpec("pmem.flush", 3, "crash"),
            InjectionSpec("pmem.flush", 3, "torn"),
        ]
        with pytest.raises(ValueError, match="duplicate injection spec"):
            InjectionPlan(specs)

    def test_same_site_distinct_occurrences_allowed(self):
        plan = InjectionPlan([
            InjectionSpec("pmem.flush", 1, "crash"),
            InjectionSpec("pmem.flush", 2, "crash"),
        ])
        assert not plan.all_fired

    def test_observe_consumes_and_all_fired_becomes_true(self):
        plan = InjectionPlan([
            InjectionSpec("a", 2, "crash"),
            InjectionSpec("b", 1, "crash"),
        ])
        assert plan.observe("a") is None       # occurrence 1: no spec
        assert not plan.all_fired
        assert plan.observe("b").site == "b"
        assert plan.observe("a").occurrence == 2
        assert plan.all_fired
        assert [s.site for s in plan.fired] == ["b", "a"]

    def test_unreached_spec_keeps_all_fired_false(self):
        plan = InjectionPlan([InjectionSpec("a", 99, "crash")])
        for _ in range(5):
            plan.observe("a")
        assert not plan.all_fired

    def test_record_mode_counts_but_never_consumes(self):
        plan = InjectionPlan(record=True)
        assert plan.observe("x") is None
        assert plan.observe("x") is None
        assert plan.counts == {"x": 2}
        assert plan.all_fired  # vacuously: nothing pending


# ----------------------------------------------------------------------
# _sample_occurrences edge cases
# ----------------------------------------------------------------------
class TestSampleOccurrences:
    def test_zero_and_negative_counts_empty(self):
        assert _sample_occurrences(0, 3) == []
        assert _sample_occurrences(-4, 3) == []

    def test_n_equal_to_cap_returns_all(self):
        assert _sample_occurrences(3, 3) == [1, 2, 3]

    def test_nonpositive_cap_means_exhaustive(self):
        assert _sample_occurrences(5, 0) == [1, 2, 3, 4, 5]

    def test_cap_one_pins_first(self):
        assert _sample_occurrences(100, 1) == [1]

    def test_endpoints_pinned_and_sorted(self):
        occs = _sample_occurrences(1000, 5)
        assert occs[0] == 1 and occs[-1] == 1000
        assert occs == sorted(occs) and len(occs) == 5

    def test_rounding_collisions_shrink_not_duplicate(self):
        # n=3, cap=2 -> {1, 3}; n=2, cap=3 -> all of [1, 2]
        assert _sample_occurrences(3, 2) == [1, 3]
        occs = _sample_occurrences(2, 3)
        assert occs == [1, 2]
        assert len(set(occs)) == len(occs)


# ----------------------------------------------------------------------
# skip-flush / skip-fence pool semantics + the invariant probe
# ----------------------------------------------------------------------
def _pool_with_plan(plan):
    pool = PMPool(size_words=64)
    cm = faultinject.activate(plan)
    cm.__enter__()
    return pool, cm


def test_skip_flush_loses_store_at_crash():
    plan = InjectionPlan([InjectionSpec("pmem.flush", 1, "skip-flush")])
    pool, cm = _pool_with_plan(plan)
    try:
        pool.write(PM_BASE, 42)
        pool.flush(PM_BASE, 1)   # elided
        pool.fence()             # nothing staged: nothing to persist
        probe = probe_persistence(pool)
        assert not probe.consistent and probe.at_risk_words == 1
        assert pool.read(PM_BASE) == 42   # reads still see the cache
        pool.crash()
        assert pool.read(PM_BASE) == 0    # gone after power loss
        assert pool.stats["skipped_flushes"] == 1
    finally:
        cm.__exit__(None, None, None)


def test_skip_fence_defers_until_later_fence():
    plan = InjectionPlan([InjectionSpec("pmem.fence", 1, "skip-fence")])
    pool, cm = _pool_with_plan(plan)
    try:
        pool.write(PM_BASE, 7)
        pool.flush(PM_BASE, 1)
        pool.fence()             # elided: stays staged
        probe = probe_persistence(pool)
        assert probe.staged_words == 1 and not probe.consistent
        pool.fence()             # a later fence drains the backlog
        assert probe_persistence(pool).consistent
        pool.crash()
        assert pool.read(PM_BASE) == 7    # made it just in time
        assert pool.stats["skipped_fences"] == 1
    finally:
        cm.__exit__(None, None, None)


def test_tail_skip_fence_loses_data_at_crash():
    plan = InjectionPlan([InjectionSpec("pmem.fence", 1, "skip-fence")])
    pool, cm = _pool_with_plan(plan)
    try:
        pool.write(PM_BASE, 9)
        pool.flush(PM_BASE, 1)
        pool.fence()             # elided, and no fence follows
        pool.crash()
        assert pool.read(PM_BASE) == 0
    finally:
        cm.__exit__(None, None, None)


def test_clean_quiescent_pool_probe_consistent():
    pool = PMPool(size_words=64)
    pool.write(PM_BASE, 1)
    pool.flush(PM_BASE, 1)
    pool.fence()
    probe = probe_persistence(pool)
    assert probe.consistent
    assert probe.at_risk_words == 0 and probe.pending_ranges == 0


def test_skip_kinds_apply_only_to_persistence_sites():
    assert kind_applies("pmem.flush", "skip-flush")
    assert not kind_applies("pmem.fence", "skip-flush")
    assert kind_applies("pmem.fence", "skip-fence")
    assert not kind_applies("pmem.flush", "skip-fence")
    # no libpmem wrapper sites: guests persist through the pool only
    for site in ("pmem.api.pmem_persist", "pmem.api.pmem_flush",
                 "pmem.api.pmem_memcpy_persist", "pmem.api.pmem_drain"):
        assert not kind_applies(site, "skip-flush")
        assert not kind_applies(site, "skip-fence")
    assert not kind_applies("ckpt.record_update", "skip-flush")
    for site in FUZZ_SITES:
        assert any(kind_applies(site, k) for k in FUZZ_KINDS)


# ----------------------------------------------------------------------
# fuzzer determinism (the drift contract is in tests/test_sweep.py)
# ----------------------------------------------------------------------
class TestFuzzerDeterminism:
    def test_same_seed_yields_byte_identical_registry_entries(self):
        # the committed sweep's seed: memcached discovers within the
        # quick-trial prefix, so this stays cheap
        a = fuzz_system("memcached", seed=2026, trials=QUICK_TRIALS)
        b = fuzz_system("memcached", seed=2026, trials=QUICK_TRIALS)
        assert a.discoveries, "the sweep seed must rediscover memcached"
        assert render_registry_block(a.discoveries) == render_registry_block(
            b.discoveries
        )
        assert [d.to_json() for d in a.discoveries] == [
            d.to_json() for d in b.discoveries
        ]

    def test_committed_entries_rebuild_as_scenarios(self):
        from repro.faults.registry import ALL_SCENARIOS, scenario_by_id

        fuzzed = [s for s in ALL_SCENARIOS if isinstance(s, FuzzedScenario)]
        assert len(fuzzed) == len(FUZZED_FAULT_SPECS) >= 6
        for entry in FUZZED_FAULT_SPECS:
            scenario = scenario_by_id(str(entry["fid"]))
            assert scenario.system == entry["system"]
            assert scenario.family == entry["family"]
            assert scenario.specs  # never an empty reproducer
