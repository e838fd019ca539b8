"""Supervised, crash-safe mitigation: retries, backoff, degradation.

The recovery pipeline itself can die — an injected (or real) crash can
land between any two reversion steps, inside a re-execution, or mid-way
through a checkpoint record.  This module is the supervisor that makes
mitigation *converge anyway*:

* :func:`with_crash_retries` re-runs a mitigation step after each
  :class:`~repro.errors.InjectedCrash`, dropping the pool's volatile
  state (exactly what a process restart does) and charging exponential
  backoff to the simulated clock, up to an attempt budget;
* :func:`ladder_run` drives the **degradation ladder**: each rung is a
  progressively blunter mitigation (purge → rollback → whole-pool
  snapshot restore), and a rung that crashes past its retry budget or
  fails to recover hands over to the next one.  A ladder that runs dry
  produces a structured *unrecoverable* report instead of an exception —
  the operator-facing artifact the paper's reactor would page with;
* :func:`pool_digest` fingerprints the durable pool image + allocator
  metadata, which is how tests assert that a crashed-and-resumed
  mitigation converges to byte-identical state.

Together with the reverter's :class:`~repro.reactor.revert.IntentJournal`
(idempotent, resumable cuts) this closes the loop the injection sweep
(:mod:`repro.harness.inject_sweep`) verifies exhaustively.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import InjectedCrash
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool

#: simulated seconds of backoff after the first crash retry (doubles per
#: retry, capped so a retry storm cannot eat the whole mitigation budget)
BACKOFF_BASE = 2.0
BACKOFF_CAP = 30.0

#: per-rung crash-retry budget
MAX_CRASH_RETRIES = 6


@dataclass
class StepResult:
    """What a ladder rung reports back to the supervisor."""

    recovered: bool
    attempts: int = 0
    timed_out: bool = False
    notes: str = ""


@dataclass
class RungOutcome:
    """One rung of the degradation ladder, as it actually ran."""

    rung: str
    recovered: bool
    attempts: int = 0
    crash_retries: int = 0
    duration_seconds: float = 0.0
    timed_out: bool = False
    notes: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class LadderReport:
    """The supervisor's full account of one mitigation."""

    rungs: List[RungOutcome] = field(default_factory=list)
    recovered: bool = False
    recovered_by: Optional[str] = None
    crash_retries: int = 0

    def to_json(self) -> dict:
        return {
            "recovered": self.recovered,
            "recovered_by": self.recovered_by,
            "crash_retries": self.crash_retries,
            "rungs": [r.to_json() for r in self.rungs],
        }


def backoff_delay(retry: int) -> float:
    """Exponential backoff for the k-th retry (1-based), capped."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (retry - 1)))


def with_crash_retries(
    step: Callable[[], StepResult], pool: PMPool, clock
) -> Tuple[StepResult, int]:
    """Run ``step``, restarting it after each injected crash.

    A crash drops the pool's volatile state (write buffer, staged lines)
    — the durable image keeps whatever the step persisted, which is why
    steps must be idempotent (reversion cuts are pure functions of the
    log; the intent journal skips completed work).  Returns the step's
    result and how many times it crashed.  Re-raises the final
    :class:`InjectedCrash` once :data:`MAX_CRASH_RETRIES` is spent.
    """
    retries = 0
    while True:
        try:
            return step(), retries
        except InjectedCrash:
            retries += 1
            pool.crash()
            if retries > MAX_CRASH_RETRIES:
                raise
            clock.advance(backoff_delay(retries))


def ladder_run(
    rungs: Sequence[Tuple[str, Callable[[], StepResult]]],
    pool: PMPool,
    clock,
) -> LadderReport:
    """Drive the degradation ladder until a rung recovers or all fail."""
    report = LadderReport()
    for name, step in rungs:
        t0 = clock.now
        try:
            res, retries = with_crash_retries(step, pool, clock)
        except InjectedCrash as exc:
            report.crash_retries += MAX_CRASH_RETRIES + 1
            report.rungs.append(RungOutcome(
                rung=name, recovered=False,
                crash_retries=MAX_CRASH_RETRIES + 1,
                duration_seconds=clock.now - t0,
                notes=f"crash-retry budget exhausted: {exc}",
            ))
            continue
        report.crash_retries += retries
        report.rungs.append(RungOutcome(
            rung=name, recovered=res.recovered, attempts=res.attempts,
            crash_retries=retries, duration_seconds=clock.now - t0,
            timed_out=res.timed_out, notes=res.notes,
        ))
        if res.recovered:
            report.recovered = True
            report.recovered_by = name
            break
    return report


def pool_digest(pool: PMPool, allocator: PMAllocator) -> int:
    """Fingerprint of the durable pool image + allocator metadata.

    Two mitigations that leave the same digest left byte-identical
    durable state — the convergence check for crashed-and-resumed runs.
    """
    items = pool.durable_items()
    payload = ",".join(f"{a}:{v}" for a, v in sorted(items.items()))
    meta = json.dumps(allocator.export_meta(), sort_keys=True)
    return zlib.crc32(f"{payload}|{meta}".encode()) & 0xFFFFFFFF
