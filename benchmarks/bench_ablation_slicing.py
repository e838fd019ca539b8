"""Ablation: static vs dynamic slicing, and bisect vs one-by-one reversion.

Two design choices the paper discusses but does not evaluate:

* Section 7 ("Analysis Accuracy") proposes **dynamic program slicing** to
  tighten the static over-approximation, at the cost of runtime
  dependence tracking.  We measure both sides: slice/candidate sizes and
  mitigation attempts shrink, recording slows the run down several fold.
* The technical report's **binary-search reversion** replaces one
  re-execution per candidate with O(log n) probes when slice nodes alias
  many sequence numbers.
"""

import time

from conftest import emit

from repro.analysis.dynslice import DynamicDependenceRecorder, dynamic_slice
from repro.detector.monitor import Detector
from repro.harness.report import render_table
from repro.harness.simclock import ReexecDelay, SimClock
from repro.reactor.plan import compute_plan
from repro.reactor.revert import Reverter
from repro.reactor.server import ReactorServer
from repro.systems.memcached import MemcachedAdapter


def _poisoned_memcached(with_recorder):
    """A memcached wedged by the f1 refcount bug, optionally recorded."""
    mc = MemcachedAdapter()
    mc.start()
    recorder = None
    if with_recorder:
        recorder = DynamicDependenceRecorder()
        recorder.attach(mc.machine)
    start = time.perf_counter()
    for key in range(60):
        mc.insert(key, 900_000_000 + key)
    run_seconds = time.perf_counter() - start
    victim = 5
    while mc.call("mc_refcount", mc.root, victim) != 0:
        mc.lookup(victim)
    mc.reap()
    mc.insert(victim + (1 << 20), 4242)
    detector = Detector()
    probe = victim + (1 << 21)
    outcome = detector.observe(mc.machine, lambda: mc.lookup(probe))
    return mc, recorder, detector, outcome, probe, run_seconds


def _mitigate(mc, detector, probe, plan, strategy):
    def reexec():
        mc.restart()  # the fresh machine runs unrecorded
        return detector.observe(
            mc.machine, lambda: (mc.recover(), mc.lookup(probe))
        )

    reverter = Reverter(mc.ckpt.log, mc.pool, mc.allocator, reexec=reexec,
                        clock=SimClock(), reexec_delay=ReexecDelay(2))
    if strategy == "bisect":
        return reverter.mitigate_bisect(plan)
    return reverter.mitigate_purge(plan)


def test_ablation_static_vs_dynamic_slicing(benchmark):
    benchmark.pedantic(
        lambda: _poisoned_memcached(False), rounds=1, iterations=1
    )
    rows = []
    results = {}
    for mode in ("static", "dynamic"):
        mc, recorder, detector, outcome, probe, run_seconds = (
            _poisoned_memcached(mode == "dynamic")
        )
        server = ReactorServer(mc.module, analysis=mc.analysis)
        override = (
            dynamic_slice(recorder, outcome.fault.iid)
            if recorder is not None
            else None
        )
        plan = compute_plan(
            mc.analysis, mc.guid_map, mc.trace, mc.ckpt.log,
            outcome.fault.iid, slice_override=override,
        )
        result = _mitigate(mc, detector, probe, plan, "purge")
        rows.append([
            mode,
            plan.slice_size,
            len(plan.candidates),
            result.attempts,
            result.discarded_updates,
            f"{run_seconds:.2f}",
        ])
        results[mode] = (plan, result)
    emit(render_table(
        "Ablation: static vs dynamic slicing on the f1 deadlock",
        ["slicing", "slice nodes", "candidates", "attempts",
         "discarded", "workload secs (60 inserts)"],
        rows,
        note="dynamic slices are tighter but pay dependence-recording "
             "overhead during normal operation",
    ))
    static_plan, static_res = results["static"]
    dyn_plan, dyn_res = results["dynamic"]
    assert static_res.recovered and dyn_res.recovered
    assert dyn_plan.slice_size <= static_plan.slice_size
    assert len(dyn_plan.candidates) <= len(static_plan.candidates)


def test_ablation_bisect_vs_one_by_one(benchmark):
    benchmark.pedantic(
        lambda: _poisoned_memcached(False), rounds=1, iterations=1
    )
    rows = []
    outcomes = {}
    for strategy in ("one-by-one", "bisect"):
        mc, _rec, detector, outcome, probe, _secs = _poisoned_memcached(False)
        plan = compute_plan(
            mc.analysis, mc.guid_map, mc.trace, mc.ckpt.log, outcome.fault.iid
        )
        result = _mitigate(mc, detector, probe, plan, strategy)
        rows.append([
            strategy, result.attempts, result.discarded_updates,
            "Y" if result.recovered else "N",
        ])
        outcomes[strategy] = result
    emit(render_table(
        "Ablation: one-by-one vs binary-search reversion on f1",
        ["strategy", "re-execution attempts", "discarded updates",
         "recovered"],
        rows,
        note="bisect = revert everything once, then binary-search the "
             "minimal newest-first prefix (technical-report variant)",
    ))
    assert outcomes["one-by-one"].recovered
    assert outcomes["bisect"].recovered
