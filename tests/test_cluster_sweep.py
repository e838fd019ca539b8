"""Tests for the cluster fault sweep: promotion-healed convergence,
promoted-vs-quiesced digest equality and the rebuild rung at cluster
scale.  The committed-report drift check is pinned with the other
sweeps' in ``tests/test_sweep.py``."""

import pytest

from repro.harness.cluster_sweep import (
    CRASH_TARGET,
    DEFAULT_SWEEP_SEED,
    QUICK_CRASH_CELLS,
    QUICK_FIDS,
    _run_cell,
    target_shard,
)


@pytest.fixture
def quick_report(cluster_quick_report):
    return cluster_quick_report


class TestQuickSweep:
    def test_all_cells_converge(self, quick_report):
        assert quick_report.passed
        for cell in quick_report.cells:
            assert cell.manifested, cell.cell_key
            assert cell.recovered and cell.demoted, cell.cell_key

    def test_digest_equality_across_modes(self, quick_report):
        # the promoted run (serving during mitigation) converged to the
        # byte-identical per-node state of the quiesced oracle run
        for cell in quick_report.cells:
            assert cell.digests_match, cell.cell_key
            assert len(cell.digests) == quick_report.n_nodes

    def test_causal_cut_and_serving(self, quick_report):
        for cell in quick_report.cells:
            assert cell.causal_cut_ok, cell.cell_key
            assert cell.serving_ok, cell.notes or cell.cell_key

    def test_quick_is_strict_subset_of_full_cells(self, quick_report):
        # the drift check depends on quick cells matching the committed
        # full sweep cell-for-cell: same key derivation, same seeds
        keys = [c.cell_key for c in quick_report.cells]
        want = [f"{fid}@n{target_shard(fid)}" for fid in QUICK_FIDS] + [
            f"f1@n{CRASH_TARGET}+{site}#{occ}"
            for site, occ in QUICK_CRASH_CELLS
        ]
        assert keys == want

    def test_heal_crash_cell_retried(self, quick_report):
        crash_cells = [c for c in quick_report.cells if c.site]
        assert crash_cells
        for cell in crash_cells:
            if cell.site.startswith("cluster.ship_delta"):
                # a crashed shipping round is retried by the serving
                # client, not by a heal step; serving_ok holds only
                # when the injected crash fired
                assert cell.serving_ok, cell.cell_key
                assert cell.crash_retries == 0, cell.cell_key
            else:
                assert cell.crash_retries >= 1, cell.cell_key


class TestRebuildCell:
    def test_unmitigable_fault_recovers_via_rebuild(self):
        # f9 (cceh) defeats the arthas ladder under the delta engine —
        # full mirroring shifts the sick node's allocation layout, so
        # the supervised revert never clears the symptom — and the
        # cluster recovers anyway by re-replicating from replicas
        cell = _run_cell("f9", target_shard("f9"), DEFAULT_SWEEP_SEED)
        assert cell.manifested
        assert cell.recovered and cell.recovered_by == "rebuild"
        assert cell.converged, cell.notes
