"""The paper's artifact demo: Memcached's refcount-overflow hard fault.

Reproduces the walkthrough of the paper's artifact appendix (bug f1,
Memcached issue #271 "gets a dead loop in func assoc_find"):

1. start a buggy (instrumented) Memcached and insert a workload,
2. trigger the bug: GETs wrap an item's 8-bit refcount to 0, the reaper
   frees the still-linked item, and a re-insert reclaims the block so the
   hash chain points at itself,
3. a GET walks the chain forever; restarting does not help — the chain
   is persistent (a hard fault),
4. invoke the Arthas reactor: it slices the hang, maps the slice through
   the PM-address trace onto the checkpoint log, and reverts the one
   poisoned insert, unwedging the server.

Run:  python examples/memcached_refcount_recovery.py
"""

from repro.detector.monitor import Detector
from repro.harness.simclock import ReexecDelay, SimClock
from repro.reactor.revert import Reverter
from repro.reactor.server import ReactorServer
from repro.systems.memcached import MemcachedAdapter


def main():
    # step 1: a buggy Memcached with Arthas attached (checkpoint + trace)
    mc = MemcachedAdapter()
    mc.start()
    for key in range(60):
        mc.insert(key, 900_000_000 + key)
    print(f"inserted {mc.count_items()} items; GET(7) -> {mc.lookup(7)}")

    # step 2: trigger the refcount overflow
    victim = 5
    while mc.call("mc_refcount", mc.root, victim) != 0:
        mc.lookup(victim)  # no overflow check: the 8-bit counter wraps
    print(f"item {victim}'s refcount wrapped to 0")
    mc.reap()  # frees refcount-0 items, assuming they were unlinked (bug)
    poison = victim + (1 << 20)
    mc.insert(poison, 4242)  # reclaims the freed block: chain self-loop
    print(f"re-inserted key {poison} into the same bucket")

    # step 3: the failure — and its recurrence across a restart
    detector = Detector()
    probe = victim + (1 << 21)  # an absent key in the poisoned bucket
    outcome = detector.observe(mc.machine, lambda: mc.lookup(probe))
    print(f"GET({probe}) -> {outcome.fault.kind}: {outcome.fault.message[:60]}")
    mc.restart()
    confirm = detector.observe(
        mc.machine, lambda: (mc.recover(), mc.lookup(probe))
    )
    print("hard fault confirmed (recurs across restart):",
          detector.is_potential_hard_failure(confirm.signature))

    # step 4: the reactor server already has the PDG; request mitigation
    server = ReactorServer(mc.module, analysis=mc.analysis)
    plan = server.compute_plan(
        mc.guid_map, mc.trace, mc.ckpt.log, outcome.fault.iid
    )
    print(f"reversion plan: {len(plan.candidates)} candidates "
          f"(slicing took {plan.slicing_seconds * 1000:.1f} ms)")

    clock = SimClock()

    def reexec():
        mc.restart()
        return detector.observe(
            mc.machine,
            lambda: (mc.recover(), mc.lookup(probe)),
        )

    reverter = Reverter(mc.ckpt.log, mc.pool, mc.allocator, reexec=reexec,
                        clock=clock, reexec_delay=ReexecDelay(seed=1))
    result = reverter.mitigate_purge(plan)
    print(f"done with binary reversion {int(result.recovered)}")
    print(f"total reverted items is {result.discarded_updates} "
          f"(of {mc.ckpt.log.total_updates} checkpointed updates, "
          f"{result.attempts} attempts, "
          f"{clock.now:.1f} simulated seconds)")

    survivors = sum(1 for k in range(60)
                    if k != victim and mc.lookup(k) == 900_000_000 + k)
    print(f"Recovery finished: {survivors}/59 untouched items intact, "
          f"violations: {mc.consistency_violations()}")
    assert result.recovered


if __name__ == "__main__":
    main()
