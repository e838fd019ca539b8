"""Injection-sweep integration tests (f9 under the crash supervisor).

The parametrized test is the issue's acceptance check in miniature: a
crash injected at *every* enumerable persist/checkpoint/reversion site
of f9's supervised mitigation must still end with a recovered,
poolcheck-clean, consistency-probed pool.  The convergence test pins the
stronger property: a mitigation crashed between reversion cuts and
re-run converges to the byte-identical durable image of an
uninterrupted run.
"""

import pytest

from repro.faultinject import InjectionPlan, InjectionSpec
from repro.harness.experiment import run_experiment
from repro.harness.inject_sweep import (
    DEFAULT_OPS,
    discover_sites,
    run_cell,
)

F9_PRE, F9_POST = DEFAULT_OPS["f9"]

# discovery is deterministic, so enumerate the parametrization at
# collection time: one crash cell per site family (first occurrence)
_F9_SITES = sorted(discover_sites("f9", seed=0)[0])


@pytest.mark.parametrize("site", _F9_SITES)
def test_f9_crash_at_every_site_family_recovers_consistent(site):
    cell = run_cell("f9", InjectionSpec(site, 1, "crash"), seed=0)
    assert cell.fired, f"{site}: injection never fired"
    assert cell.recovered, f"{site}: mitigation did not recover"
    assert cell.pool_ok, f"{site}: poolcheck failed after recovery"
    assert cell.consistent is not False, \
        f"{site}: consistency probe found violations"
    assert cell.verified


def test_f9_torn_fence_and_bitflip_cells_verify():
    for spec in (InjectionSpec("pmem.fence", 1, "torn", seed=3),
                 InjectionSpec("ckpt.record_update", 1, "bitflip", seed=5)):
        cell = run_cell("f9", spec, seed=0)
        assert cell.verified, f"{spec.label()}: {cell.notes}"


def test_crash_between_cuts_converges_to_uninterrupted_state():
    def digest_of(plan):
        result = run_experiment(
            "f9", "arthas-rb", seed=0, pre_ops=F9_PRE, post_ops=F9_POST,
            inject_plan=plan,
        )
        run = result.mitigation
        assert run is not None and run.recovered
        return run.ladder["verification"]["pool_digest"]

    baseline = digest_of(None)
    crashed = digest_of(InjectionPlan([InjectionSpec("revert.cut", 1)]))
    assert crashed == baseline, \
        "crashed-and-resumed mitigation diverged from the uninterrupted run"


def test_unreachable_site_cell_reports_unfired_not_verified():
    # single-node mitigation never promotes a cluster node
    cell = run_cell("f9", InjectionSpec("cluster.promote", 1, "crash"),
                    seed=0)
    assert not cell.fired
    assert not cell.verified
    assert "never reached" in cell.notes
