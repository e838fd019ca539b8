"""Reactor server (paper Section 5) + live traffic.

Computing the static PDG and pointer analysis can take a long time, so
the paper runs the reactor as a server that precomputes the PDG as soon
as the target code is available and parses the PM trace incrementally; a
thin RPC client invokes it at failure time and only pays the (fast)
slicing cost.  :class:`ReactorServer` models that server in-process;
its callers invoke :meth:`ReactorServer.compute_plan` directly.

The rest of the module is the **live-traffic recovery server**: an open
loop that keeps serving a sustained YCSB stream against a PM-backed
miniature while a hard fault is detected in-line, quarantined, and
mitigated *cooperatively* on a worker thread that parks at every
checkpoint so the serving thread can answer the arrivals due — the
number that matters at production scale is the p50/p99 a client sees
during a mitigation, not mitigation wall-time.  The worker installs its
park hook with :func:`~repro.lang.interp.cooperative_yield`, so only
its own guest calls, plan joins and probe seeks park, never the
serving thread's.

Serving contract during a mitigation (the soundness core):

* The mitigation owns the pool.  Probe epochs capture pre-images of
  every durable write and undo them wholesale, so client traffic must
  never touch the pool mid-mitigation: reads are answered from the
  server's reconciled view (the oracle plus a read-your-writes overlay),
  writes are deferred and re-applied in arrival order once recovery
  lands, and requests against quarantined keys get a ``quarantined``
  response with a retry-after, burning an explicit error budget.
* Quarantine is *scoped*: the reversion plan's candidate addresses are
  joined back through the checkpoint log (update spans; whole blocks
  only when small) to a :class:`RangeLockTable`, and the
  :class:`KeyTouchIndex` maps the locked words to the client keys whose
  operations ever wrote them.  Everything outside keeps flowing.
* Digest determinism: every pool-visible operation is keyed to a request
  *index*, never to wall-clock time — pre-detection traffic is
  sequential, mid-mitigation traffic never touches the pool, deferred
  writes drain in index order, and the view reconcile runs at the fixed
  ``release_index`` boundary.  A quarantine-scoped run, a stop-the-world
  run and a fully quiesced run therefore produce byte-identical pool
  digests; only the latency distributions differ.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis import AnalysisResult, analyze_module
from repro.checkpoint.log import CheckpointLog
from repro.detector.monitor import RunOutcome
from repro.errors import Trap
from repro.instrument.guids import GuidMap
from repro.instrument.tracer import PMTrace
from repro.lang.interp import cooperative_yield
from repro.lang.ir import Module
from repro.reactor.plan import ReversionPlan, compute_plan
from repro.workloads.generators import Op, OpKind
from repro.workloads.ycsb import YCSBWorkload


class ReactorServer:
    """Holds the precomputed PDG; answers plan requests quickly.

    Because the server keeps one :class:`AnalysisResult` alive across
    requests, the slice BFS memoized on its PDG (see
    :mod:`repro.analysis.slicing`) makes repeated plan requests for the
    same fault iid — the harness's detector/reactor rounds re-plan up to
    4x per mode — skip the graph walk entirely and pay only the
    trace x log join.  Every request gets :func:`compute_plan`'s one
    ranking, so the live server's quarantine horizon and the ladder's
    rungs rank candidates with the same code.
    """

    def __init__(self, module: Module, analysis: Optional[AnalysisResult] = None):
        self.analysis = analysis if analysis is not None else analyze_module(module)
        #: background precomputation cost (excluded from mitigation time):
        #: the analyzer's own phase timings, which a cached analysis keeps
        self.analysis_seconds = sum(self.analysis.timings.values())
        self.requests_served = 0

    def compute_plan(
        self,
        guid_map: GuidMap,
        trace: PMTrace,
        log: CheckpointLog,
        fault_iid: int,
    ) -> ReversionPlan:
        """Serve one plan request (slice + trace/log join)."""
        self.requests_served += 1
        trace.flush()  # incremental trace parsing catches up at request time
        return compute_plan(self.analysis, guid_map, trace, log, fault_iid)


# ======================================================================
# quarantine machinery
# ======================================================================
class RangeLockTable:
    """Sorted, disjoint half-open word ranges ``[lo, hi)`` under lock."""

    def __init__(self) -> None:
        self._ranges: List[Tuple[int, int]] = []

    def lock(self, lo: int, hi: int) -> None:
        """Lock ``[lo, hi)``, coalescing with overlapping/adjacent locks."""
        if hi <= lo:
            return
        rs = self._ranges
        i = bisect_right(rs, (lo,))
        if i > 0 and rs[i - 1][1] >= lo:
            i -= 1
        j = i
        while j < len(rs) and rs[j][0] <= hi:
            lo = min(lo, rs[j][0])
            hi = max(hi, rs[j][1])
            j += 1
        rs[i:j] = [(lo, hi)]

    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self._ranges)

    @property
    def locked_words(self) -> int:
        return sum(hi - lo for lo, hi in self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)


class KeyTouchIndex:
    """address -> client keys whose operations persisted to it.

    Fed from the PM trace on the request path (one mark/flush diff per
    applied op — the same pattern ``SystemAdapter.recover`` uses for the
    recovery-access window), queried once per mitigation to join locked
    word ranges back to the keys that must be quarantined.
    """

    def __init__(self) -> None:
        self._addr_keys: Dict[int, Set[int]] = {}
        self._sorted: List[int] = []

    def note(self, key: int, addrs: Iterable[int]) -> None:
        ak = self._addr_keys
        for addr in addrs:
            s = ak.get(addr)
            if s is None:
                ak[addr] = {key}
            else:
                s.add(key)

    def keys_in_ranges(
        self,
        ranges: Iterable[Tuple[int, int]],
        structural_threshold: Optional[int] = None,
    ) -> Set[int]:
        """Keys that persisted into any locked range.

        ``structural_threshold`` classifies words written by more than
        that many distinct keys as *structural* (allocator counters,
        hash-directory heads): they belong to the data structure, not to
        any key, and attributing them would degenerate the quarantine to
        the whole keyspace.  Structural words stay range-locked; they
        just don't nominate keys.
        """
        if len(self._sorted) != len(self._addr_keys):
            self._sorted = sorted(self._addr_keys)
        sa = self._sorted
        ak = self._addr_keys
        out: Set[int] = set()
        for lo, hi in ranges:
            for i in range(bisect_left(sa, lo), bisect_left(sa, hi)):
                keys = ak[sa[i]]
                if structural_threshold is not None \
                        and len(keys) > structural_threshold:
                    continue
                out |= keys
        return out


@dataclass(slots=True)
class ServeRecord:
    """One client request as the server answered it."""

    index: int
    kind: str
    key: int
    #: ok | deferred | quarantined | fault | unavailable
    status: str
    value: int = -1
    arrival_s: float = 0.0
    latency_s: float = 0.0
    during_mitigation: bool = False
    retry_after_s: float = 0.0


class WorkerGate:
    """Turnstile between a serving thread and a mitigation worker thread.

    Strict alternation: the worker parks at every :meth:`checkpoint`
    (each re-execution, plus the macro-phase boundaries); the serving
    thread blocks in :meth:`wait_parked`, does its serving turn, and
    :meth:`resume`\\ s it.  Exactly one side is ever active, so no shared
    state needs finer locking.  :func:`run_gated` runs that turnstile
    for the live-traffic server and for ``ShardManager.heal(serve=...)``.

    :meth:`close` retires the gate — late checkpoints become no-ops, so
    the worker can finish after the serving side stops listening.
    """

    def __init__(self) -> None:
        self._parked = threading.Event()
        self._grant = threading.Event()
        self.checkpoints = 0
        self.closed = False

    def checkpoint(self) -> None:
        """Worker side: park until the serving side resumes us."""
        if self.closed:
            return
        self.checkpoints += 1
        self._grant.clear()
        self._parked.set()
        self._grant.wait()

    def wait_parked(self, timeout: Optional[float] = None) -> bool:
        """Serving side: True once the worker is parked at a checkpoint."""
        return self._parked.wait(timeout)

    def resume(self) -> None:
        """Serving side: let the worker run to its next checkpoint."""
        self._parked.clear()
        self._grant.set()

    def close(self) -> None:
        """Retire the gate, releasing a parked worker for good."""
        self.closed = True
        self._parked.clear()
        self._grant.set()


def run_gated(
    work: Callable[[WorkerGate], object], on_park: Callable[[], None]
):
    """Run ``work(gate)`` on a ``mitigate`` worker thread behind a fresh
    :class:`WorkerGate`; call ``on_park()`` on this thread at every park.

    The worker parks once more after ``work`` returns or raises, so the
    last ``on_park()`` sees it finished.  On any exit the gate is closed
    and the worker joined, so an error on either side never leaves the
    worker parked.  Re-raises the worker's error, else returns what
    ``work`` returned.
    """
    gate = WorkerGate()
    box: Dict[str, object] = {}

    def body() -> None:
        try:
            box["result"] = work(gate)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            box["error"] = exc
        finally:
            box["done"] = True
            gate.checkpoint()  # hand the last turn back to the caller

    worker = threading.Thread(target=body, name="mitigate")
    worker.start()
    try:
        while True:
            gate.wait_parked()
            on_park()
            if box.get("done"):
                break
            gate.resume()
    finally:
        gate.close()
        worker.join()
    if "error" in box:
        raise box["error"]
    return box["result"]


def _percentile(sorted_lat: List[float], q: float) -> float:
    if not sorted_lat:
        return 0.0
    i = min(len(sorted_lat) - 1, max(0, int(q * len(sorted_lat) + 0.999999) - 1))
    return sorted_lat[i]


def _latency_stats(latencies: List[float]) -> Dict[str, float]:
    lat = sorted(latencies)
    return {
        "count": len(lat),
        "p50": _percentile(lat, 0.50),
        "p99": _percentile(lat, 0.99),
        "p999": _percentile(lat, 0.999),
        "max": lat[-1] if lat else 0.0,
        "mean": (sum(lat) / len(lat)) if lat else 0.0,
    }


# ======================================================================
# the live-traffic recovery server
# ======================================================================
#: YCSB stream shape: read share and zipfian skew
READ_RATIO = 0.5
THETA = 0.9
#: typed error responses (quarantined/fault/unavailable) a run may burn
ERROR_BUDGET = 64
#: mitigation windows before the server gives up and goes unavailable
MAX_MITIGATIONS = 3
#: live allocations up to this size are quarantined whole
SMALL_BLOCK_WORDS = 32
#: ranked plan candidates whose words are quarantined
QUARANTINE_HORIZON = 16
#: the live server's mitigation parks at most once per this many wall
#: seconds, however often its park hook is called
YIELD_MIN_INTERVAL_S = 0.004


class LiveRecoveryServer:
    """Serve a YCSB stream against a PM miniature, mitigating under fire.

    ``mode`` picks the serving policy around a mitigation window:

    * ``"quarantine"``      — scoped: non-quarantined traffic keeps
      flowing between cooperative mitigation chunks,
    * ``"stop-the-world"``  — every window arrival stalls until the
      mitigation completes, then drains with identical classification,
    * ``"quiesced"``        — no arrivals are even consumed during the
      window; the arrival schedule shifts by the window's wall time
      (the digest-equivalence oracle for the crash tests).
    """

    MODES = ("quarantine", "stop-the-world", "quiesced")

    def __init__(
        self,
        fid: str,
        solution: str = "arthas-bi",
        seed: int = 0,
        mode: str = "quarantine",
        keyspace: int = 512,
        detect_every: int = 16,
        release_after: int = 256,
        inject_plan=None,
    ) -> None:
        # imported here, not at module scope: harness.experiment imports
        # ReactorServer from this module
        from repro.baselines.pmcriu import PmCRIU
        from repro.faults.registry import scenario_by_id
        from repro.harness.experiment import (
            SNAPSHOT_INTERVAL,
            ExperimentContext,
            make_detector,
        )
        from repro.harness.simclock import OP_PERIOD

        self._op_period = OP_PERIOD

        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}; pick from {self.MODES}")
        self.fid = fid
        self.solution = solution
        self.seed = seed
        self.mode = mode
        self.keyspace = keyspace
        self.detect_every = detect_every
        self.release_after = release_after
        self.inject_plan = inject_plan

        self.scenario = scenario_by_id(fid)
        self.adapter = self.scenario.adapter_cls()(
            seed=seed, with_tracing=True, with_checkpoint=True,
        )
        self.adapter.start()
        self.ctx = ExperimentContext(self.adapter, self.scenario, seed)
        self.detector = make_detector(self.ctx)
        self.snapshotter = PmCRIU(
            self.adapter.pool, self.adapter.allocator, SNAPSHOT_INTERVAL
        )
        self.reactor = ReactorServer(self.adapter.module, analysis=self.adapter.analysis)
        self.workload = YCSBWorkload(
            seed=seed * 31 + 7, keyspace=keyspace,
            read_ratio=READ_RATIO, theta=THETA,
        )

        self.locks = RangeLockTable()
        self.touch_index = KeyTouchIndex()
        self.records: List[ServeRecord] = []
        self.quarantined_keys: Set[int] = set()
        #: view at the moment the last mitigation window opened — the
        #: no-mid-rollback-value tests replay responses against it
        self.view_snapshot: Dict[int, int] = {}
        self.mitigation_runs: List[object] = []
        self.digest_after_mitigation = ""
        self.confirmed_hard: Optional[bool] = None

        self._overlay: Dict[int, Optional[int]] = {}
        self._deferred: List[Tuple[int, Op]] = []
        self._windows: List[Tuple[float, float]] = []
        self._mitigations = 0
        self._release_index = -1
        self._triggered = False
        self._detected_ever = False
        self._served_through_view = False
        self._reconciled = True
        self._quarantine_ready = False
        self._unavailable = False
        self._retry_period = 0.001
        self._op_base = 0
        self._load()

    # ------------------------------------------------------------------
    # setup / plumbing
    # ------------------------------------------------------------------
    def _load(self) -> None:
        for i, op in enumerate(self.workload.load_ops()):
            self.ctx.op_index = i
            self.ctx.clock.advance(self._op_period)
            self.snapshotter.maybe_snapshot(self.ctx.clock.now)
            self._apply_traced(op)
            self._op_base = i + 1

    def _apply_traced(self, op: Op) -> None:
        """Apply one op, attributing its persisted words to its key."""
        trace = self.adapter.trace
        mark = trace.mark()
        try:
            self.scenario.apply_op(self.ctx, op)
        finally:
            trace.flush()
            touched = trace.since(mark)
            if touched:
                self.touch_index.note(op.key, {a for _g, a in touched})

    def _view_value(self, key: int) -> int:
        if key in self._overlay:
            v = self._overlay[key]
            return -1 if v is None else v
        return self.ctx.oracle.get(key, -1)

    def _record(
        self, idx: int, op: Op, status: str, arrival: float,
        completion: float, value: int = -1, during: bool = False,
        retry_after: float = 0.0,
    ) -> ServeRecord:
        rec = ServeRecord(
            index=idx, kind=op.kind.name, key=op.key, status=status,
            value=value, arrival_s=arrival,
            latency_s=max(0.0, completion - arrival),
            during_mitigation=during, retry_after_s=retry_after,
        )
        self.records.append(rec)
        return rec

    # ------------------------------------------------------------------
    # quarantine derivation (plan cuts -> word ranges -> keys)
    # ------------------------------------------------------------------
    def _lock_plan_ranges(self, log: CheckpointLog, plan: ReversionPlan) -> None:
        """Widen each plan candidate to the words a revert may touch.

        A reverted cut restores logged update spans, so the lock covers
        the widest retained version at the candidate address.  When the
        covering live allocation is small (an item block), the whole
        block is locked — object-granular safety.  Large shared blocks
        (hash directories: every key wrote their head words) stay at
        update-span granularity or the quarantine would degenerate to
        the full keyspace.

        Only a ranked *prefix* of the plan is locked: the reverters
        (purge, bisect) consume candidates in plan order (value-flow
        rank, slice distance, newest-first) and in practice revert a
        tiny prefix of it — the trace join fans every in-slice store
        instruction out to all addresses it ever wrote, so the full
        candidate list covers essentially the whole pool and locking it
        would quarantine every key.  The horizon bounds what mitigation
        will plausibly touch; if a revert reaches *beyond* it, serving
        stays sound anyway — mid-mitigation reads come from the view
        (never the pool) and the release-boundary reconcile folds back
        whatever the pool actually holds.
        """
        for cand in plan.candidates[:QUARANTINE_HORIZON]:
            span = 1
            entry = log.entries.get(cand.addr)
            if entry is not None:
                span = max(span, entry.max_size)
            block = log.live_alloc_covering(cand.addr)
            if block is not None and block[1] <= SMALL_BLOCK_WORDS:
                self.locks.lock(block[0], block[0] + block[1])
            self.locks.lock(cand.addr, cand.addr + span)

    # ------------------------------------------------------------------
    # the serving loop
    # ------------------------------------------------------------------
    def run(
        self, n_requests: int, arrival_period_s: float = 0.0005
    ) -> dict:
        """Serve ``n_requests`` open-loop arrivals, one due every
        ``arrival_period_s``, and return the serving report."""
        from repro.harness.experiment import detect
        from repro.harness.supervisor import pool_digest

        ops = list(self.workload.run_ops(n_requests))
        trigger_at = n_requests // 3
        period = arrival_period_s
        t0 = time.perf_counter()
        shift = 0.0
        idx = 0
        while idx < n_requests:
            if self._unavailable:
                now = time.perf_counter()
                while idx < n_requests:
                    self._record(
                        idx, ops[idx], "unavailable",
                        t0 + shift + idx * period, now,
                    )
                    idx += 1
                break
            if idx == trigger_at and not self._triggered:
                self.scenario.trigger(self.ctx)
                self._triggered = True
            arrival = t0 + shift + idx * period
            delay = arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rec = self._serve_request(idx, ops[idx], arrival)
            idx += 1
            # detection in-line on the request path: the trap a request
            # raised, or a deterministic probe between requests
            trapped = rec.status == "fault"
            probe = (
                self._triggered
                and not self._detected_ever
                and idx % self.detect_every == 0
            )
            if not (trapped or probe):
                continue
            outcome = detect(self.ctx, self.detector, trapped)
            if outcome.ok:
                continue
            if self._mitigations >= MAX_MITIGATIONS:
                self._unavailable = True
                continue
            idx, shift = self._mitigation_window(
                ops, idx, n_requests, t0, shift, period, outcome
            )
        report = self._report(n_requests, period, t0)
        report["final_digest"] = pool_digest(
            self.adapter.pool, self.adapter.allocator
        )
        return report

    # ------------------------------------------------------------------
    def _serve_request(self, idx: int, op: Op, arrival: float) -> ServeRecord:
        """Serve one request outside a mitigation window."""
        if self._served_through_view:
            # after the first mitigation, reads come from the reconciled
            # view for good (index-deterministic pool traffic); writes
            # apply below like pre-fault traffic
            self._maybe_reconcile(idx)
            if op.key in self.quarantined_keys and idx < self._release_index:
                return self._quarantined(idx, op, arrival)
            if op.kind is OpKind.GET:
                return self._record(
                    idx, op, "ok", arrival, time.perf_counter(),
                    value=self._view_value(op.key),
                )
        self.ctx.op_index = self._op_base + idx
        self.ctx.clock.advance(self._op_period)
        if not self._detected_ever:
            self.snapshotter.maybe_snapshot(self.ctx.clock.now)
        try:
            self._apply_traced(op)
        except Trap:
            self._detected_ever = True
            return self._record(idx, op, "fault", arrival, time.perf_counter())
        value = self._view_value(op.key) if op.kind is OpKind.GET else op.value
        return self._record(
            idx, op, "ok", arrival, time.perf_counter(), value=value
        )

    def _serve_during(self, idx: int, op: Op, arrival: float) -> ServeRecord:
        """Classify one window arrival (never touches the pool)."""
        # a quarantined key's reads are rejected, and its writes inside
        # the release horizon (index-deterministic, so every mode rejects
        # the same set); other writes are deferred for the in-order drain
        if op.key in self.quarantined_keys and (
            op.kind is OpKind.GET or idx < self._release_index
        ):
            return self._quarantined(idx, op, arrival, during=True)
        if op.kind is OpKind.GET:
            return self._record(
                idx, op, "ok", arrival, time.perf_counter(),
                value=self._view_value(op.key), during=True,
            )
        self._deferred.append((idx, op))
        if op.kind is OpKind.DELETE:
            self._overlay[op.key] = None
        else:
            self._overlay[op.key] = op.value
        # echo the accepted value so the client (and the rollback-value
        # tests) can replay the window from the response stream alone
        value = -1 if op.kind is OpKind.DELETE else op.value
        return self._record(
            idx, op, "deferred", arrival, time.perf_counter(), value=value,
            during=True,
        )

    def _quarantined(
        self, idx: int, op: Op, arrival: float, during: bool = False
    ) -> ServeRecord:
        """Reject a request against a quarantined key, with a retry hint."""
        retry_after = max(self._release_index - idx, 1) * self._retry_period
        return self._record(
            idx, op, "quarantined", arrival, time.perf_counter(),
            during=during, retry_after=retry_after,
        )

    # ------------------------------------------------------------------
    def _mitigation_window(
        self, ops: List[Op], idx: int, n: int, t0: float,
        shift: float, period: float, outcome: RunOutcome,
    ) -> Tuple[int, float]:
        """Run one cooperative mitigation; returns (next index, shift).

        The mitigation runs through :func:`run_gated`, which parks it
        at every :class:`WorkerGate` checkpoint and once more when it
        finishes, and joins it on any exit; this thread serves.  At each
        park it holds the arrivals now due.  In ``quarantine`` mode, once
        the quarantine is derived, it answers everything held, in index
        order, before resuming the worker, so a held request never waits
        for a newer arrival.  ``stop-the-world`` answers them after the
        window; ``quiesced`` takes none during it.
        """
        self._mitigations += 1
        self._detected_ever = True
        self._served_through_view = True
        self._reconciled = False
        self._release_index = idx + self.release_after
        self._retry_period = period
        self.view_snapshot = dict(self.ctx.oracle)
        self._overlay = {}
        self._deferred = []
        self._quarantine_ready = False
        start_wall = time.perf_counter()
        held: List[Tuple[int, Op, float]] = []

        def on_park() -> None:
            nonlocal idx, held
            if self.mode != "quiesced":
                now = time.perf_counter()
                while idx < n and t0 + shift + idx * period <= now:
                    held.append((idx, ops[idx], t0 + shift + idx * period))
                    idx += 1
            if self.mode == "quarantine" and self._quarantine_ready:
                for j, qop, qarr in held:
                    self._serve_during(j, qop, qarr)
                held = []

        run = run_gated(
            lambda gate: self._mitigate_blocking(gate, outcome), on_park
        )
        end_wall = time.perf_counter()
        self._windows.append((start_wall, end_wall))
        if self.mode == "quiesced":
            shift += end_wall - start_wall
        # stalled window arrivals drain with identical classification
        for j, qop, qarr in held:
            self._serve_during(j, qop, qarr)
        if not run.recovered:
            self._unavailable = True
            return idx, shift
        self._drain_deferred()
        return idx, shift

    def _mitigate_blocking(self, gate: WorkerGate, outcome: RunOutcome):
        """Worker-thread body: confirm, derive quarantine, mitigate."""
        # host-side mitigation loops (probe-engine seeks, plan joins)
        # park far more often than once per chunk, so the park hook is
        # throttled by wall time; the VM's step parks go through the
        # same throttle so the overall checkpoint cadence is one knob
        last_yield = [0.0]

        def throttled_yield() -> None:
            now = time.monotonic()
            if now - last_yield[0] >= YIELD_MIN_INTERVAL_S:
                last_yield[0] = now
                gate.checkpoint()

        with cooperative_yield(throttled_yield):
            return self._mitigate_body(gate, outcome)

    def _mitigate_body(self, gate: WorkerGate, outcome: RunOutcome):
        """Confirm the fault, derive the quarantine, run mitigation."""
        from repro import faultinject
        from repro.harness.experiment import (
            _make_reexec,
            confirm_hard,
            mitigate_ladder,
        )
        from repro.harness.simclock import ReexecDelay, SimClock

        adapter = self.adapter
        scenario = self.scenario
        ctx = self.ctx
        gate.checkpoint()

        # quarantine derivation first — it only needs the fault iid, the
        # trace and the checkpoint log, so unaffected traffic resumes
        # after one short chunk instead of stalling behind confirmation
        if outcome.fault is not None and adapter.ckpt is not None:
            log = adapter.ckpt.log
            plan = self.reactor.compute_plan(
                adapter.guid_map, adapter.trace, log, outcome.fault.iid
            )
            self._lock_plan_ranges(log, plan)
            self.quarantined_keys |= self.touch_index.keys_in_ranges(
                self.locks.ranges(),
                structural_threshold=max(8, self.keyspace // 8),
            )
        self._quarantine_ready = True
        gate.checkpoint()

        self.confirmed_hard = confirm_hard(ctx, self.detector, outcome)
        gate.checkpoint()

        base_reexec = _make_reexec(ctx, scenario, self.detector)

        def gated_reexec() -> RunOutcome:
            gate.checkpoint()
            return base_reexec()

        inject_cm = (
            faultinject.activate(self.inject_plan)
            if self.inject_plan is not None else nullcontext()
        )
        with inject_cm:
            run = mitigate_ladder(
                ctx, scenario, outcome, gated_reexec,
                SimClock(), ReexecDelay(seed=self.seed * 13 + 5),
                solution=self.solution,
                snapshotter=self.snapshotter, inject_plan=self.inject_plan,
                reactor_server=self.reactor,
            )
        self.digest_after_mitigation = run.pool_digest
        self.mitigation_runs.append(run)
        return run

    # ------------------------------------------------------------------
    def _drain_deferred(self) -> None:
        """Re-apply accepted window writes in arrival order."""
        for j, op in self._deferred:
            if j >= self._release_index:
                self._maybe_reconcile(self._release_index)
            self.ctx.op_index = self._op_base + j
            self.ctx.clock.advance(self._op_period)
            try:
                self._apply_traced(op)
            except Trap:
                self._unavailable = True
                break
        self._deferred = []
        self._overlay = {}

    def _maybe_reconcile(self, idx: int) -> None:
        """Refresh the view from the pool at the release boundary.

        Runs exactly once per mitigation, keyed to ``release_index`` so
        its (potentially mutating) lookups land at the same position in
        the pool-visible op sequence in every mode.
        """
        if self._reconciled or idx < self._release_index:
            return
        self._reconciled = True
        keys = sorted(set(self.ctx.oracle) | self.quarantined_keys)
        try:
            for key in keys:
                value = self.adapter.lookup(key)
                if value == -1:
                    self.ctx.oracle.pop(key, None)
                else:
                    self.ctx.oracle[key] = value
        except Trap:
            self._unavailable = True

    # ------------------------------------------------------------------
    def _report(self, n_requests: int, period: float, t0: float) -> dict:
        ok = [r.latency_s for r in self.records if r.status in ("ok", "deferred")]

        def in_window(arrival: float) -> bool:
            return any(s <= arrival <= e for s, e in self._windows)

        # three buckets by *arrival* time: requests that arrived while a
        # mitigation window was open (the scoped-vs-STW comparison the
        # bench makes), requests that arrived earlier but were served
        # through the window drain (detection backlog: the in-line hang
        # probe stalls the loop identically in every mode), and steady
        # traffic outside any window
        during = [
            r.latency_s for r in self.records
            if r.during_mitigation and r.status in ("ok", "deferred")
            and in_window(r.arrival_s)
        ]
        backlog = [
            r.latency_s for r in self.records
            if r.during_mitigation and r.status in ("ok", "deferred")
            and not in_window(r.arrival_s)
        ]
        steady = [
            r.latency_s for r in self.records
            if not r.during_mitigation and r.status in ("ok", "deferred")
        ]
        quarantined = sum(1 for r in self.records if r.status == "quarantined")
        faults = sum(1 for r in self.records if r.status == "fault")
        unavailable = sum(1 for r in self.records if r.status == "unavailable")
        burned = quarantined + faults + unavailable
        runs = self.mitigation_runs
        report = {
            "fid": self.fid,
            "solution": self.solution,
            "mode": self.mode,
            "seed": self.seed,
            "n_requests": n_requests,
            "arrival_period_s": period,
            "requests_answered": len(self.records),
            "wall_seconds": time.perf_counter() - t0,
            "latency": _latency_stats(ok),
            "during_mitigation": _latency_stats(during),
            "detection_backlog": _latency_stats(backlog),
            "steady": _latency_stats(steady),
            "error_budget": {
                "budget": ERROR_BUDGET,
                "burned": burned,
                "remaining": max(0, ERROR_BUDGET - burned),
                "exhausted": burned > ERROR_BUDGET,
                "quarantined_responses": quarantined,
                "fault_responses": faults,
                "unavailable_responses": unavailable,
            },
            "quarantine": {
                "ranges": len(self.locks),
                "locked_words": self.locks.locked_words,
                "keys": sorted(self.quarantined_keys),
                "stream_keys": sorted(
                    k for k in self.quarantined_keys if k < self.keyspace
                ),
                "release_index": self._release_index,
            },
            "reactor": {
                "analysis_seconds": self.reactor.analysis_seconds,
                "plan_requests": self.reactor.requests_served,
            },
            "mitigation": {
                "count": len(runs),
                "recovered": bool(runs) and all(r.recovered for r in runs),
                "confirmed_hard": self.confirmed_hard,
                "attempts": sum(r.attempts for r in runs),
                "sim_seconds": sum(r.duration_seconds for r in runs),
                "wall_seconds": sum(e - s for s, e in self._windows),
                "analysis_seconds": (
                    self.reactor.analysis_seconds if runs else 0.0
                ),
                "reactor_requests": max(
                    (r.reactor_requests for r in runs), default=0
                ),
            },
            "digest_after_mitigation": self.digest_after_mitigation,
            "unavailable": self._unavailable,
        }
        return report
