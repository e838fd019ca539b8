"""End-to-end experiment tests over the fast fault scenarios.

Full 12x4 matrices live in the benchmarks; here we pin the key paper
shapes on the quickest cases so the suite stays fast.
"""

import pytest

from repro.faults.fuzzed import FUZZ_FAMILIES
from repro.faults.registry import (
    ALL_SCENARIOS,
    TABLE2_SCENARIOS,
    scenario_by_id,
    scenarios_by_family,
)
from repro.harness.experiment import SOLUTIONS, run_experiment


def test_registry_covers_table2():
    assert [s.fid for s in TABLE2_SCENARIOS] == [f"f{i}" for i in range(1, 13)]
    systems = {s.system for s in TABLE2_SCENARIOS}
    assert systems == {"memcached", "redis", "cceh", "pelikan", "pmemkv"}
    assert all(s.family == "table2" for s in TABLE2_SCENARIOS)


def test_registry_grows_with_fuzzed_families():
    # the seeded scenarios come first, fuzzer discoveries follow with
    # contiguous fids; every discovery belongs to a fuzz family
    n = len(ALL_SCENARIOS)
    assert [s.fid for s in ALL_SCENARIOS] == [f"f{i}" for i in range(1, n + 1)]
    fuzzed = ALL_SCENARIOS[len(TABLE2_SCENARIOS):]
    assert len(fuzzed) >= 6
    assert {s.family for s in fuzzed} == set(FUZZ_FAMILIES)
    by_family = scenarios_by_family()
    assert by_family["table2"] == list(TABLE2_SCENARIOS)
    assert sum(len(v) for v in by_family.values()) == n


def test_unknown_solution_rejected():
    with pytest.raises(ValueError):
        run_experiment("f4", "nope")


class TestF4ImmediateCrash:
    """The append-overflow segfault: every solution handles it."""

    @pytest.mark.parametrize("solution", SOLUTIONS)
    def test_recovers(self, solution):
        result = run_experiment("f4", solution, seed=0)
        assert result.manifested
        assert result.confirmed_hard
        assert result.mitigation.recovered
        if solution == "arthas-bi":
            # bisect keeps the minimal prefix that stops recurrence; on
            # accounting-heavy faults that can strand counter updates
            # outside the one-hop forward purge (the strategy's
            # documented semantic-consistency trade-off)
            assert result.mitigation.consistent is not None
        else:
            assert result.mitigation.consistent

    def test_arthas_beats_pmcriu_on_data_loss(self):
        arthas = run_experiment("f4", "arthas", seed=0).mitigation
        pmcriu = run_experiment("f4", "pmcriu", seed=0).mitigation
        assert arthas.discarded_pct < pmcriu.discarded_pct

    def test_invariants_detect_f4_corruption(self):
        result = run_experiment("f4", "arthas", seed=0)
        assert result.invariant_violations  # Table 7: f4 detectable


class TestF5Bitflip:
    def test_arthas_repairs_divergence(self):
        result = run_experiment("f5", "arthas", seed=0)
        m = result.mitigation
        assert m.recovered
        assert m.attempts == 1
        assert "divergent" in m.notes
        assert m.reverted_updates == 0  # repaired, nothing discarded

    def test_checksum_detects_only_hw_fault(self):
        flip = run_experiment("f5", "arthas", seed=0, with_checksum=True)
        assert flip.checksum_hits > 0
        soft = run_experiment("f11", "arthas", seed=0, with_checksum=True)
        assert soft.checksum_hits == 0


class TestF11NullStats:
    def test_arthas_recovers_consistently(self):
        result = run_experiment("f11", "arthas", seed=0)
        assert result.mitigation.recovered
        assert result.mitigation.consistent

    def test_arckpt_times_out(self):
        result = run_experiment("f11", "arckpt", seed=0)
        assert not result.mitigation.recovered
        assert result.mitigation.timed_out


class TestF12Leak:
    def test_arthas_leakfix_discards_nothing(self):
        result = run_experiment("f12", "arthas", seed=0)
        m = result.mitigation
        assert m.recovered
        assert m.reverted_updates == 0
        assert m.leaked_blocks > 0
        assert m.consistent

    def test_pmcriu_recovers_with_data_loss(self):
        result = run_experiment("f12", "pmcriu", seed=0)
        m = result.mitigation
        assert m.recovered
        assert m.discarded_pct > 0


class TestF17PurgeFallsBackToRollback:
    def test_ladder_records_the_fallback(self):
        # Section 4.5: purge exhausts its 60 tries, rollback recovers;
        # the run as a whole recovered, so it did not time out
        m = run_experiment("f17", "arthas", seed=0).mitigation
        rungs = [
            (r["rung"], r["attempts"], r["recovered"], r["timed_out"])
            for r in m.ladder["rungs"]
        ]
        assert rungs == [
            ("purge", 60, False, True),
            ("rollback", 15, True, False),
        ]
        assert m.ladder["recovered_by"] == "rollback"
        assert m.attempts == 75
        assert m.timed_out is False


class TestMitigationAccounting:
    def test_mitigation_time_includes_reexec_delays(self):
        m = run_experiment("f11", "arthas", seed=0).mitigation
        # each attempt pays a 3-5s re-execution delay
        assert m.duration_seconds >= 3.0 * m.attempts

    def test_discard_metric_bounded(self):
        m = run_experiment("f4", "arthas", seed=0).mitigation
        assert 0 <= m.discarded_pct <= 100
        assert m.total_updates > 0

    def test_slicing_metadata_reported(self):
        m = run_experiment("f11", "arthas", seed=0).mitigation
        assert m.plan_candidates > 0
        assert m.pm_slice_size > 0
        assert m.slice_size >= m.pm_slice_size
