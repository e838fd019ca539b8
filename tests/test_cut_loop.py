"""Edge behaviour of the five mitigation loops, pinned on synthetic stacks.

Purge, rollback and bisect (``Reverter``), ArCkpt and pmCRIU each try
cuts: apply one, charge the simulated clock, re-execute, judge.  They
differ at the edges, and each difference shows in a committed report or
is pinned here:

* where the budget is checked — the Arthas strategies after applying a
  cut (a cut that runs out of attempts stays applied, unexecuted), the
  baselines before (a cut they start always re-executes);
* what the clock is charged — ``0.002 s`` per reverted seq (per group
  seq for purge, at least one for rollback and bisect), once more per
  seq the forward pass reverts, a flat ``0.002 s`` per ArCkpt cut and
  ``1.5 s`` per pmCRIU restore, plus the re-execution delay;
* a cut that reverts nothing — purge skips its re-execution, ArCkpt
  re-executes anyway;
* the journal (rollback only), the new-fault stop (purge and rollback;
  bisect counts a new fault as a failed probe), divergence repair, the
  empty-plan abort and the forward pass (the Arthas strategies only);
* the ``revert.cut`` / ``revert.commit`` injection sites.

Every case runs under a record-mode injection plan with a seeded
re-execution delay and a scripted re-execution that counts its calls,
and compares the result's fields, the clock, the durable pool digest and
the site counts with the values the five loops produced before they
became one.
"""

from typing import Callable, Dict, List, Optional

import pytest

from repro import faultinject
from repro.baselines.arckpt import ArCkpt
from repro.baselines.pmcriu import PmCRIU
from repro.detector.monitor import RunOutcome
from repro.harness.simclock import ReexecDelay, SimClock
from repro.harness.supervisor import pool_digest
from repro.lang.interp import FaultInfo
from repro.reactor.plan import Candidate, ReversionPlan
from repro.reactor.revert import IntentJournal, Reverter
from tests.test_reactor_revert import _persist, _stack

KNOWN_FAULT = 1
NEW_FAULT = 999


class Reexec:
    """A scripted re-execution.

    Passes once ``ok()`` holds, else fails with ``fault_iid``.  Each call
    writes its count to a scratch word (a re-execution's own PM writes,
    which bisect must undo) and, with ``logs``, records that write in the
    checkpoint log (a log that grows under bisect's probes).
    """

    def __init__(self, pool, log, allocator, ok: Callable[[], bool],
                 fault_iid: int = KNOWN_FAULT, logs: bool = False):
        self.pool, self.log = pool, log
        self.ok = ok
        self.fault_iid = fault_iid
        self.logs = logs
        self.scratch = allocator.zalloc(1)
        self.calls = 0

    def __call__(self) -> RunOutcome:
        self.calls += 1
        self.pool.durable_write(self.scratch, self.calls)
        if self.logs:
            self.log.record_update(self.scratch, 1, [self.calls])
        if self.ok():
            return RunOutcome(ok=True)
        fault = FaultInfo(iid=self.fault_iid, kind="assert",
                          message="still failing", location="x")
        return RunOutcome(ok=False, fault=fault)


def _plan(log, seqs) -> ReversionPlan:
    return ReversionPlan(fault_iid=KNOWN_FAULT, candidates=[
        Candidate(seq=s, addr=log.event(s).addr, guid="g", slice_iid=-1)
        for s in seqs
    ])


def _words(pool, log, allocator, n: int, versions: int = 2) -> List[List[int]]:
    """``n`` one-word entries with ``versions`` persists each (values
    ``10*i + v``); returns every entry's seqs, oldest first."""
    addrs = [allocator.zalloc(1) for _ in range(n)]
    seqs = [[] for _ in range(n)]
    for v in range(1, versions + 1):
        for i, a in enumerate(addrs):
            seqs[i].append(_persist(pool, log, a, [10 * i + v]))
    return seqs


class Case:
    """One synthetic stack, built fresh per run."""

    def __init__(self) -> None:
        self.pool, self.allocator, self.log = _stack()
        self.clock = SimClock()
        self.intents: Optional[IntentJournal] = None
        self.reexec: Optional[Reexec] = None

    def reverter(self, **kw) -> Reverter:
        kw.setdefault("known_faults", {KNOWN_FAULT})
        return Reverter(
            self.log, self.pool, self.allocator, reexec=self.reexec,
            clock=self.clock, reexec_delay=ReexecDelay(seed=3),
            intents=self.intents, **kw,
        )


# ----------------------------------------------------------------------
# the cases: each returns (case, run) — run() mitigates once
# ----------------------------------------------------------------------
def _marching(n=4, bad=3, **kw):
    """n words at v2; re-execution passes once word ``bad`` is back at v1."""
    c = Case()
    seqs = _words(c.pool, c.log, c.allocator, n)
    addr = c.log.event(seqs[bad][0]).addr
    c.reexec = Reexec(c.pool, c.log, c.allocator,
                      lambda: c.pool.durable_read(addr) == 10 * bad + 1, **kw)
    return c, seqs


def purge_marches():
    c, seqs = _marching()
    return c, lambda: c.reverter().mitigate_purge(_plan(c.log, [s[1] for s in seqs]))


def purge_batches():
    c, seqs = _marching(n=5, bad=4)
    return c, lambda: c.reverter().mitigate_purge(
        _plan(c.log, [s[1] for s in seqs]), batch_size=2)


def purge_attempt_budget():
    c, seqs = _marching()
    return c, lambda: c.reverter(max_attempts=2).mitigate_purge(
        _plan(c.log, [s[1] for s in seqs]))


def purge_clock_budget():
    c, seqs = _marching()
    return c, lambda: c.reverter(timeout_seconds=9.0).mitigate_purge(
        _plan(c.log, [s[1] for s in seqs]))


def purge_skips_empty_group():
    """The first candidate is an entry's only version: nothing to revert."""
    c, seqs = _marching(n=3, bad=2)
    lone = _persist(c.pool, c.log, c.allocator.zalloc(1), [7])
    return c, lambda: c.reverter().mitigate_purge(
        _plan(c.log, [lone] + [s[1] for s in seqs]))


def purge_steps_back():
    """Only going two versions back recovers; purge's second pass does."""
    c = Case()
    (seqs,) = _words(c.pool, c.log, c.allocator, 1, versions=3)
    addr = c.log.event(seqs[0]).addr
    c.reexec = Reexec(c.pool, c.log, c.allocator,
                      lambda: c.pool.durable_read(addr) == 1)
    return c, lambda: c.reverter().mitigate_purge(_plan(c.log, [seqs[2]]))


def purge_exhausts_versions():
    c, seqs = _marching(n=2, bad=1)
    c.reexec.ok = lambda: False
    return c, lambda: c.reverter().mitigate_purge(_plan(c.log, [s[1] for s in seqs]))


def _forward_case(max_attempts=200):
    """Word 0 is bad; words 1 and 2 were computed from it afterwards."""
    c, seqs = _marching(n=3, bad=0)
    later = [_persist(c.pool, c.log, c.log.event(s[0]).addr, [77]) for s in seqs[1:]]
    fwd = {seqs[0][1]: set(later)}
    rev = c.reverter(max_attempts=max_attempts,
                     forward_seqs_fn=lambda cand: fwd.get(cand.seq, set()))
    return c, rev, seqs


def purge_forward_confirm():
    c, rev, seqs = _forward_case()
    return c, lambda: rev.mitigate_purge(_plan(c.log, [seqs[0][1]]))


def purge_forward_confirm_spent():
    c, rev, seqs = _forward_case(max_attempts=1)
    return c, lambda: rev.mitigate_purge(_plan(c.log, [seqs[0][1]]))


def purge_new_fault():
    c, seqs = _marching(fault_iid=NEW_FAULT)
    return c, lambda: c.reverter().mitigate_purge(_plan(c.log, [s[1] for s in seqs]))


def _diverged(recovers: bool):
    """Word 0 flipped out of band; re-execution needs word 2 at v1 too
    unless ``recovers``."""
    c, seqs = _marching(n=3, bad=2)
    a0 = c.log.event(seqs[0][0]).addr
    a2 = c.log.event(seqs[2][0]).addr
    c.pool.durable_write(a0, 4)
    c.reexec.ok = lambda: c.pool.durable_read(a0) == 2 and (
        recovers or c.pool.durable_read(a2) == 21)
    return c, seqs


def purge_repair_recovers():
    c, seqs = _diverged(recovers=True)
    return c, lambda: c.reverter().mitigate_purge(_plan(c.log, [s[1] for s in seqs]))


def purge_empty_plan():
    c, _seqs = _marching()
    return c, lambda: c.reverter().mitigate_purge(ReversionPlan(fault_iid=KNOWN_FAULT))


def _rollback(c, seqs, **kw):
    return lambda: c.reverter(**kw).mitigate_rollback(
        _plan(c.log, [s[1] for s in reversed(seqs)]))


def rollback_journaled():
    c, seqs = _marching(bad=1)
    c.intents = IntentJournal()
    return c, _rollback(c, seqs)


def rollback_resumes_done_cut():
    """A crashed earlier run already applied and tested the first cut."""
    c, seqs = _marching(bad=1)
    c.intents = IntentJournal()
    first = seqs[3][1]
    c.intents.begin(first, mode="rollback")
    c.intents.commit(first, recovered=False)
    return c, _rollback(c, seqs)


def rollback_attempt_budget():
    c, seqs = _marching(bad=0)
    c.intents = IntentJournal()
    return c, _rollback(c, seqs, max_attempts=2)


def rollback_clock_budget():
    c, seqs = _marching(bad=0)
    c.intents = IntentJournal()
    return c, _rollback(c, seqs, timeout_seconds=9.0)


def rollback_new_fault():
    c, seqs = _marching(bad=0, fault_iid=NEW_FAULT)
    c.intents = IntentJournal()
    return c, _rollback(c, seqs)


def rollback_repair_then_cuts():
    c, seqs = _diverged(recovers=False)
    c.intents = IntentJournal()
    return c, _rollback(c, seqs)


def _bisect(c, seqs, **kw):
    return lambda: c.reverter(**kw).mitigate_bisect(
        _plan(c.log, [s[1] for s in seqs]))


def bisect_keeps_prefix():
    c, seqs = _marching(n=8, bad=5)
    return c, _bisect(c, seqs)


def bisect_aborts():
    c, seqs = _marching(n=6, bad=2)
    c.reexec.ok = lambda: False
    return c, _bisect(c, seqs)


def bisect_attempt_budget():
    c, seqs = _marching(n=8, bad=5)
    return c, _bisect(c, seqs, max_attempts=2)


def bisect_full_probe_spent():
    c, seqs = _marching(n=8, bad=5)
    c.clock.advance(598.0)
    return c, _bisect(c, seqs)


def bisect_new_fault_is_a_failed_probe():
    c, seqs = _marching(n=8, bad=5, fault_iid=NEW_FAULT)
    return c, _bisect(c, seqs)


def bisect_log_grows():
    c, seqs = _marching(n=8, bad=5, logs=True)
    return c, _bisect(c, seqs)


def bisect_forward_confirm():
    c, rev, seqs = _forward_case()
    return c, lambda: rev.mitigate_bisect(_plan(c.log, [s[1] for s in seqs]))


def bisect_forward_confirm_spent():
    c, rev, seqs = _forward_case(max_attempts=2)
    return c, lambda: rev.mitigate_bisect(
        _plan(c.log, [s[1] for s in reversed(seqs)]))


def _arckpt(c, **kw):
    return lambda: ArCkpt(c.log, c.pool, c.allocator).mitigate(
        c.reexec, clock=c.clock, reexec_delay=ReexecDelay(seed=3), **kw)


def arckpt_recovers():
    c, seqs = _marching(bad=1)
    return c, _arckpt(c)


def arckpt_tx_and_empty_cuts():
    """Newest first: a transaction reverted whole, then entries' only
    versions (nothing to revert, re-executed anyway)."""
    c, seqs = _marching(n=2, bad=0)
    lone = [c.allocator.zalloc(1) for _ in range(2)]
    for a in lone:
        _persist(c.pool, c.log, a, [5])
    c.log.record_tx_begin(9)
    for s in seqs:
        _persist(c.pool, c.log, c.log.event(s[0]).addr, [66], tx_id=9)
    c.log.record_tx_commit(9)
    return c, _arckpt(c)


def arckpt_attempt_budget():
    c, seqs = _marching(bad=0)
    return c, _arckpt(c, max_attempts=3)


def arckpt_clock_budget():
    """A cut started before the timeout re-executes past it."""
    c, seqs = _marching(bad=0)
    return c, _arckpt(c, timeout_seconds=5.0)


def _pmcriu(n_snapshots: int, good_through: int):
    """Word holds 1..n at snapshots 1..n and n+1 now; re-execution
    passes once it is at most ``good_through``."""
    c = Case()
    a = c.allocator.zalloc(1)
    criu = PmCRIU(c.pool, c.allocator, interval_seconds=10.0)
    for v in range(1, n_snapshots + 1):
        c.pool.durable_write(a, v)
        criu.maybe_snapshot(10.0 * v)
    c.pool.durable_write(a, n_snapshots + 1)
    c.reexec = Reexec(c.pool, c.log, c.allocator,
                      lambda: c.pool.durable_read(a) <= good_through)
    return c, criu


def pmcriu_restores_newest_first():
    c, criu = _pmcriu(4, good_through=2)
    return c, lambda: criu.mitigate(c.reexec, clock=c.clock,
                                    reexec_delay=ReexecDelay(seed=3))


def pmcriu_attempt_cap():
    c, criu = _pmcriu(24, good_through=0)
    c.reexec.ok = lambda: False
    return c, lambda: criu.mitigate(c.reexec, clock=c.clock,
                                    reexec_delay=ReexecDelay(seed=3))


def pmcriu_started_past_timeout():
    c, criu = _pmcriu(3, good_through=1)
    c.clock.advance(601.0)
    return c, lambda: criu.mitigate(c.reexec, clock=c.clock,
                                    reexec_delay=ReexecDelay(seed=3))


def pmcriu_crosses_timeout():
    c, criu = _pmcriu(3, good_through=0)
    c.clock.advance(595.0)
    return c, lambda: criu.mitigate(c.reexec, clock=c.clock,
                                    reexec_delay=ReexecDelay(seed=3))


CASES = {f.__name__: f for f in (
    purge_marches, purge_batches, purge_attempt_budget, purge_clock_budget,
    purge_skips_empty_group, purge_steps_back, purge_exhausts_versions,
    purge_forward_confirm, purge_forward_confirm_spent, purge_new_fault,
    purge_repair_recovers, purge_empty_plan,
    rollback_journaled, rollback_resumes_done_cut, rollback_attempt_budget,
    rollback_clock_budget, rollback_new_fault, rollback_repair_then_cuts,
    bisect_keeps_prefix, bisect_aborts, bisect_attempt_budget,
    bisect_full_probe_spent, bisect_new_fault_is_a_failed_probe,
    bisect_log_grows, bisect_forward_confirm, bisect_forward_confirm_spent,
    arckpt_recovers, arckpt_tx_and_empty_cuts, arckpt_attempt_budget,
    arckpt_clock_budget,
    pmcriu_restores_newest_first, pmcriu_attempt_cap,
    pmcriu_started_past_timeout, pmcriu_crosses_timeout,
)}


def observe(name: str) -> Dict[str, object]:
    case, run = CASES[name]()
    plan = faultinject.InjectionPlan(record=True)
    with faultinject.activate(plan):
        result = run()
    return {
        "attempts": result.attempts,
        "timed_out": result.timed_out,
        "recovered": result.recovered,
        "reverted_seqs": list(result.reverted_seqs),
        "notes": result.notes,
        "clock": case.clock.now,
        "digest": pool_digest(case.pool, case.allocator),
        "reexec_calls": case.reexec.calls,
        "journal": case.intents.done_cuts() if case.intents else None,
        "sites": dict(sorted(plan.counts.items())),
    }


#: read off the five loops before they became one
EXPECTED: Dict[str, Dict[str, object]] = {
    'arckpt_attempt_budget': dict(
        attempts=3, timed_out=True, recovered=False,
        reverted_seqs=[8, 7, 6],
        notes='',
        clock=11.310298037871846, digest=3966029715,
        reexec_calls=3, journal=None,
        sites={},
    ),
    'arckpt_clock_budget': dict(
        attempts=2, timed_out=True, recovered=False,
        reverted_seqs=[8, 7],
        notes='',
        clock=7.568387704775686, digest=206246608,
        reexec_calls=2, journal=None,
        sites={},
    ),
    'arckpt_recovers': dict(
        attempts=3, timed_out=False, recovered=True,
        reverted_seqs=[8, 7, 6],
        notes='',
        clock=11.310298037871846, digest=3966029715,
        reexec_calls=3, journal=None,
        sites={},
    ),
    'arckpt_tx_and_empty_cuts': dict(
        attempts=6, timed_out=False, recovered=True,
        reverted_seqs=[9, 8, 9, 8, 4, 3],
        notes='',
        clock=22.90663644175997, digest=3987402707,
        reexec_calls=6, journal=None,
        sites={'ckpt.index_merge': 1},
    ),
    'bisect_aborts': dict(
        attempts=1, timed_out=False, recovered=False,
        reverted_seqs=[],
        notes='full reversion did not recover; bisect aborted',
        clock=3.4879292541837827, digest=1886589218,
        reexec_calls=1, journal=None,
        sites={},
    ),
    'bisect_attempt_budget': dict(
        attempts=2, timed_out=True, recovered=True,
        reverted_seqs=[9, 10, 11, 12, 13, 14, 15, 16],
        notes='bisect kept 8 of 8 reversion groups',
        clock=7.588387704775686, digest=2290944340,
        reexec_calls=2, journal=None,
        sites={},
    ),
    'bisect_forward_confirm': dict(
        attempts=4, timed_out=False, recovered=True,
        reverted_seqs=[4, 8, 7],
        notes='bisect kept 1 of 3 reversion groups',
        clock=15.532138115064235, digest=717988404,
        reexec_calls=4, journal=None,
        sites={'ckpt.index_merge': 1},
    ),
    'bisect_forward_confirm_spent': dict(
        attempts=2, timed_out=True, recovered=False,
        reverted_seqs=[6, 5, 4, 8, 7],
        notes='bisect kept 3 of 3 reversion groups',
        clock=7.578387704775686, digest=1440374989,
        reexec_calls=2, journal=None,
        sites={'ckpt.index_merge': 1},
    ),
    'bisect_full_probe_spent': dict(
        attempts=0, timed_out=True, recovered=False,
        reverted_seqs=[],
        notes='full reversion did not recover; bisect aborted',
        clock=601.4919292541838, digest=1688390384,
        reexec_calls=0, journal=None,
        sites={},
    ),
    'bisect_keeps_prefix': dict(
        attempts=4, timed_out=False, recovered=True,
        reverted_seqs=[9, 10, 11, 12, 13, 14],
        notes='bisect kept 6 of 8 reversion groups',
        clock=15.558138115064231, digest=2544225844,
        reexec_calls=4, journal=None,
        sites={},
    ),
    'bisect_log_grows': dict(
        attempts=4, timed_out=False, recovered=True,
        reverted_seqs=[9, 10, 11, 12, 13, 14],
        notes='bisect kept 6 of 8 reversion groups',
        clock=15.558138115064231, digest=2544225844,
        reexec_calls=4, journal=None,
        sites={'ckpt.index_merge': 4},
    ),
    'bisect_new_fault_is_a_failed_probe': dict(
        attempts=4, timed_out=False, recovered=True,
        reverted_seqs=[9, 10, 11, 12, 13, 14],
        notes='bisect kept 6 of 8 reversion groups',
        clock=15.558138115064231, digest=2544225844,
        reexec_calls=4, journal=None,
        sites={},
    ),
    'pmcriu_attempt_cap': dict(
        attempts=20, timed_out=True, recovered=False,
        reverted_seqs=[],
        notes='restored ckpt5',
        clock=110.25477373898724, digest=3075677719,
        reexec_calls=20, journal=None,
        sites={},
    ),
    'pmcriu_crosses_timeout': dict(
        attempts=2, timed_out=True, recovered=False,
        reverted_seqs=[],
        notes='restored ckpt2',
        clock=605.5643877047758, digest=1101618446,
        reexec_calls=2, journal=None,
        sites={},
    ),
    'pmcriu_restores_newest_first': dict(
        attempts=3, timed_out=False, recovered=True,
        reverted_seqs=[],
        notes='restored ckpt2',
        clock=15.804298037871845, digest=2152071700,
        reexec_calls=3, journal=None,
        sites={},
    ),
    'pmcriu_started_past_timeout': dict(
        attempts=0, timed_out=True, recovered=False,
        reverted_seqs=[],
        notes='',
        clock=601.0, digest=135828379,
        reexec_calls=0, journal=None,
        sites={},
    ),
    'purge_attempt_budget': dict(
        attempts=2, timed_out=True, recovered=False,
        reverted_seqs=[5, 6, 7],
        notes='',
        clock=7.568387704775686, digest=3872981876,
        reexec_calls=2, journal=None,
        sites={'revert.commit': 3, 'revert.cut': 3},
    ),
    'purge_batches': dict(
        attempts=3, timed_out=False, recovered=True,
        reverted_seqs=[7, 6, 9, 8, 10],
        notes='',
        clock=11.314298037871843, digest=2030456528,
        reexec_calls=3, journal=None,
        sites={'revert.commit': 3, 'revert.cut': 3},
    ),
    'purge_clock_budget': dict(
        attempts=2, timed_out=True, recovered=False,
        reverted_seqs=[5, 6, 7],
        notes='',
        clock=11.310298037871846, digest=3872981876,
        reexec_calls=2, journal=None,
        sites={'revert.commit': 3, 'revert.cut': 3},
    ),
    'purge_empty_plan': dict(
        attempts=0, timed_out=False, recovered=False,
        reverted_seqs=[],
        notes='',
        clock=0.0, digest=943278647,
        reexec_calls=0, journal=None,
        sites={},
    ),
    'purge_exhausts_versions': dict(
        attempts=2, timed_out=False, recovered=False,
        reverted_seqs=[3, 4],
        notes='',
        clock=7.568387704775686, digest=1601371875,
        reexec_calls=2, journal=None,
        sites={'revert.commit': 2, 'revert.cut': 6},
    ),
    'purge_forward_confirm': dict(
        attempts=2, timed_out=False, recovered=True,
        reverted_seqs=[4, 8, 7],
        notes='',
        clock=7.574387704775686, digest=2622416912,
        reexec_calls=2, journal=None,
        sites={'ckpt.index_merge': 1, 'revert.commit': 1, 'revert.cut': 1},
    ),
    'purge_forward_confirm_spent': dict(
        attempts=1, timed_out=True, recovered=False,
        reverted_seqs=[4, 8, 7],
        notes='',
        clock=3.481929254183782, digest=3339472130,
        reexec_calls=1, journal=None,
        sites={'ckpt.index_merge': 1, 'revert.commit': 1, 'revert.cut': 1},
    ),
    'purge_marches': dict(
        attempts=4, timed_out=False, recovered=True,
        reverted_seqs=[5, 6, 7, 8],
        notes='',
        clock=15.520138115064235, digest=2523876511,
        reexec_calls=4, journal=None,
        sites={'revert.commit': 4, 'revert.cut': 4},
    ),
    'purge_new_fault': dict(
        attempts=1, timed_out=False, recovered=False,
        reverted_seqs=[5],
        notes='stopped: new fault surfaced',
        clock=3.4779292541837825, digest=1388318901,
        reexec_calls=1, journal=None,
        sites={'revert.commit': 1, 'revert.cut': 1},
    ),
    'purge_repair_recovers': dict(
        attempts=1, timed_out=False, recovered=True,
        reverted_seqs=[],
        notes='repaired 1 divergent word(s)',
        clock=3.4779292541837825, digest=394704121,
        reexec_calls=1, journal=None,
        sites={},
    ),
    'purge_skips_empty_group': dict(
        attempts=3, timed_out=False, recovered=True,
        reverted_seqs=[4, 5, 6],
        notes='',
        clock=11.310298037871846, digest=853645321,
        reexec_calls=3, journal=None,
        sites={'ckpt.index_merge': 1, 'revert.commit': 3, 'revert.cut': 4},
    ),
    'purge_steps_back': dict(
        attempts=2, timed_out=False, recovered=True,
        reverted_seqs=[3, 3],
        notes='',
        clock=7.568387704775686, digest=888366288,
        reexec_calls=2, journal=None,
        sites={'revert.commit': 2, 'revert.cut': 2},
    ),
    'rollback_attempt_budget': dict(
        attempts=2, timed_out=True, recovered=False,
        reverted_seqs=[8, 7, 8, 6, 7, 8],
        notes='',
        clock=7.570387704775686, digest=319192551,
        reexec_calls=2, journal=[7, 8],
        sites={'revert.commit': 3, 'revert.cut': 3},
    ),
    'rollback_clock_budget': dict(
        attempts=2, timed_out=True, recovered=False,
        reverted_seqs=[8, 7, 8, 6, 7, 8],
        notes='',
        clock=11.316298037871846, digest=319192551,
        reexec_calls=2, journal=[7, 8],
        sites={'revert.commit': 3, 'revert.cut': 3},
    ),
    'rollback_journaled': dict(
        attempts=3, timed_out=False, recovered=True,
        reverted_seqs=[8, 7, 8, 6, 7, 8],
        notes='',
        clock=11.316298037871846, digest=3966029715,
        reexec_calls=3, journal=[6, 7, 8],
        sites={'revert.commit': 3, 'revert.cut': 3},
    ),
    'rollback_new_fault': dict(
        attempts=1, timed_out=False, recovered=False,
        reverted_seqs=[8],
        notes='stopped: new fault surfaced',
        clock=3.4779292541837825, digest=2803854886,
        reexec_calls=1, journal=[8],
        sites={'revert.commit': 1, 'revert.cut': 1},
    ),
    'rollback_repair_then_cuts': dict(
        attempts=2, timed_out=False, recovered=True,
        reverted_seqs=[6],
        notes='repaired 1 divergent word(s)',
        clock=7.568387704775686, digest=1183153332,
        reexec_calls=2, journal=[6],
        sites={'revert.commit': 1, 'revert.cut': 1},
    ),
    'rollback_resumes_done_cut': dict(
        attempts=2, timed_out=False, recovered=True,
        reverted_seqs=[8, 7, 8, 6, 7, 8],
        notes='',
        clock=7.5743877047756865, digest=319192551,
        reexec_calls=2, journal=[6, 7, 8],
        sites={'revert.commit': 2, 'revert.cut': 2},
    ),
}

#: site counts that moved when the five loops became one: the loop fires
#: ``revert.cut`` before every cut it applies and ``revert.commit`` after
#: its re-execution, where bisect and the baselines fired neither (no
#: committed report injects into their rungs)
FREE_SITES: Dict[str, Dict[str, int]] = {
    'arckpt_attempt_budget': {'revert.commit': 3, 'revert.cut': 3},
    'arckpt_clock_budget': {'revert.commit': 2, 'revert.cut': 2},
    'arckpt_recovers': {'revert.commit': 3, 'revert.cut': 3},
    'arckpt_tx_and_empty_cuts': {'revert.commit': 6, 'revert.cut': 6},
    'bisect_aborts': {'revert.commit': 1, 'revert.cut': 1},
    'bisect_attempt_budget': {'revert.commit': 3, 'revert.cut': 3},
    'bisect_forward_confirm': {'revert.commit': 3, 'revert.cut': 3},
    'bisect_forward_confirm_spent': {'revert.commit': 2, 'revert.cut': 2},
    'bisect_full_probe_spent': {'revert.commit': 1, 'revert.cut': 1},
    'bisect_keeps_prefix': {'revert.commit': 4, 'revert.cut': 4},
    'bisect_log_grows': {'revert.commit': 4, 'revert.cut': 4},
    'bisect_new_fault_is_a_failed_probe': {'revert.commit': 4, 'revert.cut': 4},
    'pmcriu_attempt_cap': {'revert.commit': 20, 'revert.cut': 20},
    'pmcriu_crosses_timeout': {'revert.commit': 2, 'revert.cut': 2},
    'pmcriu_restores_newest_first': {'revert.commit': 3, 'revert.cut': 3},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cut_loop_edges(name):
    got = observe(name)
    want = dict(EXPECTED[name])
    if name in FREE_SITES:
        want["sites"] = {**want["sites"], **FREE_SITES[name]}
    assert got == want
