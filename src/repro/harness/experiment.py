"""End-to-end experiment orchestration (paper Section 6.1 methodology).

``run_experiment(fid, solution, seed)`` reproduces one cell of the
evaluation matrix: run the target system for the simulated 5 minutes,
fire the bug trigger half-way (or wherever the scenario's seeded timing
puts it), detect the failure, confirm it recurs across a restart (the
hard-fault heuristic), mitigate with the chosen solution, and measure
recoverability, consistency, attempts, time and discarded data.

Each step of that fault lifecycle has one implementation here, shared by
the matrix, the live-traffic server, the cluster sweep and
``cluster-status``: :func:`make_detector`, :func:`detect`,
:func:`confirm_hard` and the crash-supervised degradation ladder
:func:`mitigate_ladder`.

Solutions:

* ``arthas``     — Arthas in purge mode (the default in the paper)
* ``arthas-rb``  — Arthas in conservative rollback mode
* ``arthas-bi``  — Arthas in binary-search (bisect) mode, riding the
  incremental probe engine; falls back to rollback.  First-class matrix
  column since the fault study grew past f1–f12
* ``pmcriu``     — CRIU + PM pool dumps, 1-minute snapshot interval
* ``arckpt``     — the checkpoint log without the analyzer
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from repro import faultinject
from repro.baselines.arckpt import ArCkpt
from repro.baselines.pmcriu import PmCRIU
from repro.detector.monitor import Detector, LeakMonitor, RunOutcome
from repro.detector.signature import FailureSignature
from repro.errors import InjectedCrash, Trap
from repro.faults.registry import FaultScenario, scenario_by_id
from repro.harness.simclock import OP_PERIOD, ReexecDelay, SimClock
from repro.harness.supervisor import (
    StepResult,
    ladder_run,
    pool_digest,
    with_crash_retries,
)
from repro.lang.interp import FaultInfo
from repro.pmem.poolcheck import check_pool
from repro.reactor.leakfix import find_leaked_objects, mitigate_leak
from repro.reactor.plan import Candidate
from repro.reactor.revert import IntentJournal, MitigationResult, Reverter
from repro.reactor.server import ReactorServer
from repro.workloads.generators import MixedWorkload

SOLUTIONS = ("arthas", "arthas-rb", "arthas-bi", "pmcriu", "arckpt")

#: Arthas solution name -> primary Reverter strategy
_ARTHAS_MODES = {"arthas": "purge", "arthas-rb": "rollback", "arthas-bi": "bisect"}

#: snapshot interval for pmCRIU in simulated seconds (paper: 1 minute)
SNAPSHOT_INTERVAL = 60.0

#: mitigation gives up after this much simulated time (paper: 10 minutes)
MITIGATION_TIMEOUT = 600.0


class ExperimentContext:
    """Mutable state shared between the runner and the scenario.

    A mitigation that must park for a serving thread does not carry its
    hook here: it installs it on its own thread with
    :func:`repro.lang.interp.cooperative_yield`.
    """

    def __init__(self, adapter, scenario: FaultScenario, seed: int):
        self.adapter = adapter
        self.scenario = scenario
        self.seed = seed
        self.clock = SimClock()
        self.oracle: Dict[int, int] = {}
        self.state: Dict[str, object] = {}
        self.op_index = 0

    def sample_keys(
        self, n: int, exclude: Optional[Callable[[int], bool]] = None
    ) -> List[int]:
        """The earliest still-live oracle keys, skipping excluded ones.

        Early keys are the most durable reference points: they predate
        the trigger and (for pmCRIU) the first snapshot, so their absence
        after a recovery genuinely indicates an unrecovered failure.
        """
        out: List[int] = []
        for key in sorted(self.oracle):
            if self.scenario.exclude_key(self, key):
                continue
            if exclude is not None and exclude(key):
                continue
            out.append(key)
            if len(out) >= n:
                break
        return out


@dataclass
class MitigationRun:
    """Measured outcome of one mitigation."""

    solution: str
    recovered: bool
    attempts: int = 0
    duration_seconds: float = 0.0
    reverted_updates: int = 0
    total_updates: int = 0
    items_before: int = 0
    items_after: int = 0
    consistent: Optional[bool] = None
    violations: List[str] = field(default_factory=list)
    plan_candidates: int = 0
    slice_size: int = 0
    pm_slice_size: int = 0
    leaked_blocks: int = 0
    timed_out: bool = False
    notes: str = ""
    #: CRC32 fingerprint of the post-mitigation durable state (pool
    #: image + allocator metadata); lets equivalence suites compare two
    #: runs' final states without holding both pools
    pool_digest: int = 0
    #: the degradation-ladder account (rungs, crash retries,
    #: post-recovery verification)
    ladder: dict = field(default_factory=dict)
    #: plan requests the reactor server answered
    reactor_requests: int = 0
    #: checkpoint sequence numbers the reverter-based rungs reverted,
    #: sorted and distinct — the distributed coordinator's
    #: damage-assessment input (it maps them through the cluster oplog
    #: to discarded client ops)
    reverted_seqs: List[int] = field(default_factory=list)
    #: True when recovery came from a whole-pool snapshot restore: the
    #: revert set is then not seq-addressable and damage assessment
    #: must fall back to state diffing
    coarse_restore: bool = False

    def absorb(self, mres: MitigationResult) -> None:
        """Copy one reverter or baseline result into the run."""
        self.attempts += mres.attempts
        self.reverted_updates += mres.discarded_updates
        self.reverted_seqs = sorted(
            set(self.reverted_seqs).union(mres.reverted_seqs)
        )
        self.recovered = mres.recovered
        self.timed_out = mres.timed_out
        self.notes = mres.notes

    @property
    def discarded_pct(self) -> float:
        """Fraction of state updates discarded by the recovery (Fig. 9)."""
        if self.solution == "pmcriu":
            if self.items_before <= 0:
                return 0.0
            lost = max(0, self.items_before - self.items_after)
            return 100.0 * lost / self.items_before
        if self.total_updates <= 0:
            return 0.0
        return 100.0 * self.reverted_updates / self.total_updates


@dataclass
class ExperimentResult:
    """One cell of the evaluation matrix."""

    fid: str
    solution: str
    seed: int
    manifested: bool
    confirmed_hard: bool = False
    detection_fault: Optional[FaultInfo] = None
    detection_violation: Optional[str] = None
    invariant_violations: List[str] = field(default_factory=list)
    checksum_hits: int = 0
    mitigation: Optional[MitigationRun] = None


# ----------------------------------------------------------------------
# the fault lifecycle: detector, detect, confirm (mitigate_ladder below)
# ----------------------------------------------------------------------
def make_detector(ctx: ExperimentContext) -> Detector:
    """The detector one deployment runs: guest traps always, plus the
    PM-usage monitor for leak scenarios (Section 4.3)."""
    detector = Detector()
    if ctx.scenario.kind == "leak":
        detector.set_leak_monitor(LeakMonitor(
            ctx.adapter.allocator,
            ctx.adapter.expected_item_words,
            threshold_ratio=ctx.scenario.leak_ratio,
        ))
    return detector


def detect(
    ctx: ExperimentContext, detector: Detector, trapped: bool = False
) -> RunOutcome:
    """Detection: the trap regular traffic just raised (``trapped``),
    else one manifest probe under the detector."""
    machine = ctx.adapter.machine
    if trapped:
        fault = machine.last_fault
        signature = FailureSignature.from_fault(fault)
        detector.history.append(signature)
        return RunOutcome(ok=False, fault=fault, signature=signature)
    return detector.observe(machine, lambda: ctx.scenario.manifest(ctx))


def confirm_hard(
    ctx: ExperimentContext, detector: Detector, outcome: RunOutcome
) -> bool:
    """Hard-fault confirmation: restart, recover, watch the failure recur.

    A recurrence whose signature matches an earlier one is a *potential
    hard* fault (Section 4.3); when either run carries no signature (a
    user check or the leak monitor flagged it), recurrence alone decides.
    """
    adapter = ctx.adapter
    adapter.restart()
    confirm = detector.observe(
        adapter.machine, lambda: (adapter.recover(), ctx.scenario.manifest(ctx))
    )
    if confirm.signature is not None and outcome.signature is not None:
        return detector.is_potential_hard_failure(confirm.signature)
    return not confirm.ok


# ----------------------------------------------------------------------
def run_experiment(
    fid,
    solution: str,
    seed: int = 0,
    batch_size: int = 1,
    pre_ops: Optional[int] = None,
    post_ops: Optional[int] = None,
    with_checksum: bool = False,
    consistency_probe: bool = True,
    detect_only: bool = False,
    inject_plan: Optional[faultinject.InjectionPlan] = None,
) -> ExperimentResult:
    """Run one (fault, solution) experiment end to end.

    Mitigation runs the crash-supervised degradation ladder
    (:func:`mitigate_ladder`), and the result carries its ladder report
    with post-recovery verification (poolcheck, checksum scan, pool
    digest).  An ``inject_plan`` is armed *only* around the mitigation
    phase — the injection sweep probes recovery's own crash-safety, not
    the workload's.

    ``fid`` may be a registered fault id *or* a :class:`FaultScenario`
    instance — the fuzzer probes candidate scenarios through the exact
    pipeline they will face once registered.
    """
    if solution not in SOLUTIONS:
        raise ValueError(
            f"unknown solution {solution!r}; pick from {SOLUTIONS}"
        )
    if isinstance(fid, FaultScenario):
        scenario = fid
        fid = scenario.fid
    else:
        scenario = scenario_by_id(fid)
    arthas_like = solution in _ARTHAS_MODES
    adapter = scenario.adapter_cls()(
        seed=seed,
        with_tracing=arthas_like,
        with_checkpoint=arthas_like or solution == "arckpt",
    )
    adapter.start()
    ctx = ExperimentContext(adapter, scenario, seed)
    result = ExperimentResult(fid=fid, solution=solution, seed=seed, manifested=False)

    checksum = None
    if with_checksum:
        from repro.detector.checksum import ChecksumMonitor

        checksum = ChecksumMonitor(adapter.pool)
        checksum.attach()

    detector = make_detector(ctx)
    # only the pmCRIU baseline snapshots: its ladder's one rung restores
    # the newest periodic whole-pool image
    pmcriu: Optional[PmCRIU] = None
    if solution == "pmcriu":
        pmcriu = PmCRIU(adapter.pool, adapter.allocator, SNAPSHOT_INTERVAL)

    # ------------------------------------------------------------------
    # phase A + trigger + phase B
    # ------------------------------------------------------------------
    n_pre = pre_ops if pre_ops is not None else scenario.pre_ops
    n_post = post_ops if post_ops is not None else scenario.post_ops
    trigger_at = min(scenario.trigger_op_index(seed), n_pre + n_post - 1)
    workload = MixedWorkload(
        seed=seed * 31 + 7,
        insert_ratio=scenario.pre_mix[0],
        get_ratio=scenario.pre_mix[1],
        exclude=lambda key: scenario.exclude_key(ctx, key),
    )

    trapped = False
    for i in range(n_pre + n_post):
        ctx.op_index = i
        ctx.clock.advance(OP_PERIOD)
        if pmcriu is not None:
            pmcriu.maybe_snapshot(ctx.clock.now)
        if i == trigger_at:
            scenario.trigger(ctx)
            workload.insert_ratio, workload.get_ratio = scenario.post_mix
        try:
            scenario.apply_op(ctx, workload.next_op())
        except Trap:
            # the failure surfaced during regular traffic
            trapped = True
            break

    outcome = detect(ctx, detector, trapped)
    if outcome.ok:
        return result  # the fault did not manifest with this seed
    result.manifested = True
    result.detection_fault = outcome.fault
    result.detection_violation = outcome.violation

    # invariant / checksum detectability at failure time (Table 7, §6.6)
    try:
        result.invariant_violations = list(adapter.consistency_violations())
    except Trap:
        result.invariant_violations = ["invariant check crashed on corrupt state"]
    if checksum is not None:
        result.checksum_hits = len(checksum.verify())
        checksum.detach()

    items_before = _safe_count(adapter)
    if detect_only:
        return result

    result.confirmed_hard = confirm_hard(ctx, detector, outcome)

    # the injection plan is armed around mitigation only: the probe and
    # verification phases below must observe recovery's real outcome
    inject_cm = (
        faultinject.activate(inject_plan)
        if inject_plan is not None else nullcontext()
    )
    with inject_cm:
        run = mitigate_ladder(
            ctx, scenario, outcome, _make_reexec(ctx, scenario, detector),
            SimClock(), ReexecDelay(seed=seed * 13 + 5),
            solution=solution, batch_size=batch_size,
            snapshotter=pmcriu, inject_plan=inject_plan,
        )
    run.items_before = items_before
    run.items_after = _safe_count(adapter)

    # ------------------------------------------------------------------
    # post-recovery consistency (Table 4)
    # ------------------------------------------------------------------
    if run.recovered and consistency_probe:
        violations = _consistency_suite(ctx, scenario, seed)
        run.violations = violations
        run.consistent = not violations
    result.mitigation = run
    return result


# ----------------------------------------------------------------------
def _safe_count(adapter) -> int:
    try:
        return adapter.count_items()
    except Trap:  # pragma: no cover - count is a plain field read
        return 0


def _make_reexec(ctx, scenario, detector) -> Callable[[], RunOutcome]:
    adapter = ctx.adapter

    def reexec() -> RunOutcome:
        adapter.restart()

        def action() -> None:
            adapter.recover()
            scenario.verify(ctx)

        try:
            return detector.observe(adapter.machine, action)
        except AssertionError as exc:
            # host-side symptom checks (wrong value, unexpected result)
            # fail the re-execution without a guest fault instruction
            return RunOutcome(ok=False, violation=str(exc) or "symptom check failed")

    return reexec


def forward_seqs(adapter, cand: Candidate) -> Set[int]:
    """Seqs of the logged updates at the addresses the PM dependents of
    ``cand``'s slice node touched, one PDG hop out: what purge and
    bisect revert along with ``cand``."""
    if cand.slice_iid < 0:
        return set()
    analysis, log = adapter.analysis, adapter.ckpt.log
    seqs: Set[int] = set()
    for dep_iid, _kind in analysis.pdg.dependents_of(cand.slice_iid):
        if not analysis.pm.is_pm_instr(dep_iid):
            continue
        for guid in adapter.guid_map.carriers(dep_iid):
            for addr in adapter.trace.addresses_for_guid(guid):
                seqs.update(log.update_seqs_for_address(addr))
    return seqs


def _make_rounds_runner(
    ctx, reexec, mclock: SimClock, delay, batch_size: int,
    server: Optional[ReactorServer] = None,
):
    """Build the detector/reactor rounds driver the ladder's reverter
    rungs run.

    The returned ``rounds(run, seen_faults, start_iid, mode,
    max_attempts, intents=None)`` may run several rounds: mitigating one
    bad state can expose a different failure (e.g. restoring wrongly
    deleted items exposes the bad flush timestamp that deleted them),
    which the detector reports and the reactor re-slices from.  ``mode``
    picks the Reverter strategy: ``"purge"``, ``"rollback"`` or
    ``"bisect"``.
    """
    adapter = ctx.adapter
    log = adapter.ckpt.log
    if server is None:
        server = ReactorServer(adapter.module, analysis=adapter.analysis)

    def rounds(
        run: MitigationRun,
        seen_faults: Set[int],
        start_iid: int,
        mode: str,
        max_attempts: int,
        intents: Optional[IntentJournal] = None,
    ) -> None:
        fault_iid = start_iid
        first_round = run.attempts == 0
        for _round in range(4):
            plan = server.compute_plan(
                adapter.guid_map, adapter.trace, log, fault_iid
            )
            reverter = Reverter(
                log,
                adapter.pool,
                adapter.allocator,
                reexec=reexec,
                clock=mclock,
                reexec_delay=delay,
                timeout_seconds=MITIGATION_TIMEOUT,
                forward_seqs_fn=partial(forward_seqs, adapter),
                max_attempts=max(1, max_attempts - run.attempts),
                known_faults=seen_faults,
                enable_divergence_repair=first_round and _round == 0,
                intents=intents,
            )
            if mode == "rollback":
                mres = reverter.mitigate_rollback(plan)
            elif mode == "bisect":
                mres = reverter.mitigate_bisect(plan)
            else:
                mres = reverter.mitigate_purge(plan, batch_size=batch_size)
            run.absorb(mres)
            run.plan_candidates = max(run.plan_candidates, len(plan.candidates))
            run.slice_size = max(run.slice_size, plan.slice_size)
            run.pm_slice_size = max(run.pm_slice_size, plan.pm_slice_size)
            run.reactor_requests = server.requests_served
            if mres.recovered:
                return
            if mclock.now > MITIGATION_TIMEOUT or run.attempts >= max_attempts:
                return
            last = mres.last_outcome
            if last is None or last.fault is None or last.fault.iid in seen_faults:
                return  # same failure keeps recurring in this mode
            fault_iid = last.fault.iid
            seen_faults.add(fault_iid)

    return rounds


def mitigate_ladder(
    ctx,
    scenario,
    outcome: RunOutcome,
    reexec,
    mclock: SimClock,
    delay,
    solution: str,
    batch_size: int = 1,
    snapshotter: Optional[PmCRIU] = None,
    inject_plan: Optional[faultinject.InjectionPlan] = None,
    reactor_server: Optional[ReactorServer] = None,
) -> MitigationRun:
    """Crash-safe mitigation: retry with backoff, degrade down the ladder.

    Rungs, by solution (each wrapped in crash-retries up to
    :data:`~repro.harness.supervisor.MAX_CRASH_RETRIES`, each idempotent):

    * ``arthas``     — purge → rollback (intent-journaled)
    * ``arthas-rb``  — rollback (intent-journaled)
    * ``arthas-bi``  — bisect → rollback (intent-journaled)
    * leak faults    — leak-fix (every Arthas solution)
    * ``arckpt``     — arckpt reversion

    plus a last ``snapshot`` rung whenever the caller owns a
    ``snapshotter`` — the ``pmcriu`` baseline (its only rung) and the
    live-traffic server.  Purge and bisect get 60 attempts before
    falling back to rollback (Section 4.5); rollback gets 200.

    An injected crash *inside a re-execution* surfaces as a guest fault
    of kind ``injected-crash``; the strict reexec wrapper re-raises it so
    the supervisor treats it as the process death it models.  Finishes
    with verification — poolcheck, a checkpoint-checksum scan (corrupt
    versions are quarantined, never deserialized into reversion plans),
    and a durable-state digest — and, when every rung fails, a
    structured unrecoverable report instead of an exception.
    """
    adapter = ctx.adapter
    log = adapter.ckpt.log if adapter.ckpt is not None else None
    run = MitigationRun(solution=solution, recovered=False)
    intents = IntentJournal()
    quarantined_total = 0

    def strict_reexec() -> RunOutcome:
        out = reexec()
        if out.fault is not None and \
                getattr(out.fault, "kind", "") == "injected-crash":
            raise InjectedCrash(
                getattr(out.fault, "message", "") or "crash during re-execution",
                location="reexec",
            )
        return out

    def scan_log() -> int:
        """Detect + quarantine media-corrupted checkpoint versions."""
        nonlocal quarantined_total
        if log is None:
            return 0
        bad = log.verify_checksums()
        if bad:
            log.quarantine_corrupt()
        quarantined_total += len(bad)
        return len(bad)

    # never let a corrupt version seed a reversion plan; the scan's
    # checksum pass can itself trigger a staged index merge, which is a
    # crash site (ckpt.index_merge) — treat a crash there like any
    # mitigation-step death: model the restart and retry (the staged
    # tail survives a failed merge untouched, so the retry converges).
    # The verification scan after the ladder survives it the same way.
    def full_scan() -> StepResult:
        scan_log()
        return StepResult(recovered=True)

    with_crash_retries(full_scan, adapter.pool, mclock)

    def rung(mitigate: Callable[[], None]) -> Callable[[], StepResult]:
        """A ladder rung that runs ``mitigate`` into ``run`` and reports
        what it added."""
        def step() -> StepResult:
            before = run.attempts
            run.recovered = False
            mitigate()
            return StepResult(
                recovered=run.recovered, attempts=run.attempts - before,
                timed_out=run.timed_out, notes=run.notes,
            )
        return step

    # how the baseline rungs re-execute, on the ladder's clock
    baseline = dict(
        reexec=strict_reexec, clock=mclock, reexec_delay=delay,
        timeout_seconds=MITIGATION_TIMEOUT,
    )
    rungs: List = []
    if solution in _ARTHAS_MODES and scenario.kind != "leak" \
            and outcome.fault is not None:
        rounds = _make_rounds_runner(
            ctx, strict_reexec, mclock, delay, batch_size,
            server=reactor_server,
        )
        seen_faults = {outcome.fault.iid}

        def arthas(mode: str, budget: int,
                   journal: Optional[IntentJournal] = None):
            def mitigate() -> None:
                scan_log()
                rounds(run, seen_faults, outcome.fault.iid, mode,
                       run.attempts + budget, intents=journal)
            return rung(mitigate)

        primary = _ARTHAS_MODES[solution]
        if primary != "rollback":
            rungs.append((primary, arthas(primary, 60)))
        rungs.append(("rollback", arthas("rollback", 200, intents)))
    elif solution in _ARTHAS_MODES and scenario.kind == "leak":
        def leak_step() -> StepResult:
            # Section 4.7: diff checkpoint-log liveness against the
            # addresses recovery touches; free what recovery never reaches
            adapter.restart()
            leaked = find_leaked_objects(
                log, adapter.allocator, adapter.recover(),
                protect={adapter.root},
            )
            freed = mitigate_leak(adapter.allocator, leaked, confirm=True)
            mclock.advance(delay())
            out = strict_reexec()
            run.attempts += 1
            run.leaked_blocks = len(leaked)
            run.notes = f"freed {freed} leaked words in {len(leaked)} blocks"
            return StepResult(recovered=out.ok, attempts=1, notes=run.notes)
        rungs.append(("leak-fix", leak_step))
    elif solution == "arckpt" and log is not None:
        def arckpt() -> None:
            scan_log()
            run.absorb(ArCkpt(log, adapter.pool, adapter.allocator)
                       .mitigate(**baseline))
        rungs.append(("arckpt", rung(arckpt)))

    if snapshotter is not None:
        rungs.append(("snapshot", rung(
            lambda: run.absorb(snapshotter.mitigate(**baseline))
        )))

    report = ladder_run(rungs, adapter.pool, mclock)
    run.recovered = report.recovered
    run.coarse_restore = report.recovered_by == "snapshot"
    # the final outcome: a rung that ran out of budget before a later
    # rung recovered (purge falling back to rollback) is not a timeout
    run.timed_out = not report.recovered and any(
        r.timed_out for r in report.rungs
    )
    run.duration_seconds = mclock.now
    if log is not None:
        run.total_updates = log.total_updates

    # ------------------------------------------------------------------
    # verification: is the pool provably consistent after recovery?
    # ------------------------------------------------------------------
    with_crash_retries(full_scan, adapter.pool, mclock)
    pc = check_pool(adapter.pool, adapter.allocator)
    run.pool_digest = pool_digest(adapter.pool, adapter.allocator)
    verification: Dict[str, object] = {
        "pool_ok": pc.ok,
        "pool_summary": pc.summary(),
        "checksum_quarantined": quarantined_total,
        "pool_digest": run.pool_digest,
        "intent_cuts_done": intents.done_cuts(),
    }
    if inject_plan is not None and not inject_plan.record:
        verification["injected"] = [s.label() for s in inject_plan.fired]
        verification["all_injections_fired"] = inject_plan.all_fired
    run.ladder = report.to_json()
    run.ladder["verification"] = verification
    if not report.recovered:
        run.ladder["unrecoverable"] = {
            "fid": getattr(scenario, "fid", "?"),
            "solution": solution,
            "seed": ctx.seed,
            "reason": "all ladder rungs exhausted without recovery",
            "rungs_tried": [r.rung for r in report.rungs],
            "crash_retries": report.crash_retries,
            "poolcheck": pc.summary(),
            "checksum_quarantined": quarantined_total,
        }
    return run


def _consistency_suite(ctx, scenario, seed: int) -> List[str]:
    """Post-recovery semantic checks: probe traffic + domain invariants."""
    adapter = ctx.adapter
    violations: List[str] = []
    probe = MixedWorkload(
        seed=seed * 97 + 3,
        insert_ratio=0.5,
        get_ratio=0.3,
        exclude=lambda key: scenario.exclude_key(ctx, key),
    )
    probe._next_key = 9_000_000  # fresh keyspace, away from poisoned buckets
    try:
        for op in probe.ops(40):
            scenario.apply_op(ctx, op)
    except Trap:
        fault = adapter.machine.last_fault
        violations.append(f"probe traffic crashed: {fault.kind} ({fault.message})")
        return violations
    try:
        violations.extend(adapter.consistency_violations())
        violations.extend(scenario.extra_consistency(ctx))
    except Trap:
        fault = adapter.machine.last_fault
        violations.append(f"consistency check crashed: {fault.kind}")
    return violations
