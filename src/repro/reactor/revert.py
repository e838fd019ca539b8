"""Reversion execution: purge and rollback strategies (Section 4.4-4.6).

Both strategies walk the plan's candidate list, revert PM state, and call
a re-execution script after each reversion to check whether the failure
still recurs:

* **purge** reverts *only* the selected checkpoint entries (expanded to
  their enclosing transactions), then runs a second pass purging
  forward-dependent updates for consistency.  Minimal data loss, small
  risk of semantic inconsistency.
* **rollback** reverts the selected entry *and every log event with a
  higher sequence number* — value updates restored to their last version
  before the cut, frees un-freed, allocations released.  Conservative:
  strictly respects time order.

Reversions write durable words directly (they model the reactor patching
the pool file offline), so they never re-enter the checkpoint hooks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro import faultinject
from repro.checkpoint.log import CheckpointLog
from repro.detector.monitor import RunOutcome
from repro.errors import AllocationError
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.reactor.plan import Candidate, ReversionPlan

ReexecFn = Callable[[], RunOutcome]
ForwardSeqsFn = Callable[[Candidate], Set[int]]


class IntentJournal:
    """Write-ahead intents for reversion cuts (crash-safe mitigation).

    Before applying a cut the reverter records a *begin* intent; after
    the cut is fully applied and its re-execution attempt resolved, a
    *commit* record marks it done.  A crash anywhere in between leaves a
    pending intent, and a re-run of the same mitigation:

    * **re-applies** every done cut — ``rollback_to_before`` is a pure
      function of ``(log, cut)``, so re-application is idempotent — but
      skips its re-execution (the journal already knows it did not
      recover, else mitigation would have ended);
    * treats a pending cut as never applied and runs it normally.

    This is what makes supervised mitigation converge to the same final
    state as an uninterrupted run, no matter where it crashed.  With a
    ``path`` the journal appends one JSON line per record (each line is
    flushed before the cut proceeds, modelling a durable intent region);
    without one it is in-memory, which is enough for the in-process
    injection sweep where the journal object survives the "crash".
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        #: cut -> "pending" | "done"
        self.status: Dict[int, str] = {}
        #: cuts whose re-execution attempt resolved as not-recovered
        self._recovered: Dict[int, bool] = {}
        if path is not None and os.path.exists(path):
            self._replay(path)

    def _replay(self, path: str) -> None:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    break  # torn tail: the writer died mid-append
                if rec.get("op") == "begin":
                    self.status[rec["cut"]] = "pending"
                elif rec.get("op") == "commit":
                    self.status[rec["cut"]] = "done"
                    self._recovered[rec["cut"]] = bool(rec.get("recovered"))

    def _append(self, rec: dict) -> None:
        if self.path is None:
            return
        with open(self.path, "a") as f:
            f.write(json.dumps(rec) + "\n")
            f.flush()
            os.fsync(f.fileno())

    def begin(self, cut: int, mode: str) -> None:
        self.status[cut] = "pending"
        self._append({"op": "begin", "cut": cut, "mode": mode})

    def commit(self, cut: int, recovered: bool = False) -> None:
        self.status[cut] = "done"
        self._recovered[cut] = recovered
        self._append({"op": "commit", "cut": cut, "recovered": recovered})

    def is_done(self, cut: int) -> bool:
        return self.status.get(cut) == "done"

    def done_cuts(self) -> List[int]:
        return sorted(c for c, s in self.status.items() if s == "done")


class _NullClock:
    """Fallback clock when the caller does not supply one."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt


@dataclass
class MitigationResult:
    """Outcome of one mitigation run."""

    recovered: bool
    mode: str
    attempts: int = 0
    reverted_seqs: List[int] = field(default_factory=list)
    duration_seconds: float = 0.0
    aborted_empty_plan: bool = False
    timed_out: bool = False
    notes: str = ""
    #: outcome of the last re-execution (None if none ran); a different
    #: fault than the one being mitigated starts a new detector/reactor
    #: round in the harness
    last_outcome: Optional[RunOutcome] = None

    @property
    def discarded_updates(self) -> int:
        """Unique checkpoint updates reverted (the data-loss numerator)."""
        return len(set(self.reverted_seqs))


class _ProbeDelta:
    """Undo record for one probe step.

    Pairs a pool dirty-word epoch (pre-images of every durable word
    mutated while the delta is open) with a *lazily* captured allocator
    metadata pre-image: the allocator's pre-mutate hook fires before its
    first metadata mutation, at which point the metadata still equals its
    state when the delta opened — so nothing is copied for the common
    probe step that never touches the allocator.
    """

    __slots__ = ("pool", "allocator", "token", "pre_meta", "_armed")

    def __init__(self, pool: PMPool, allocator: PMAllocator):
        self.pool = pool
        self.allocator = allocator
        self.token = pool.open_epoch()
        self.pre_meta: Optional[dict] = None
        self._armed = True
        allocator.add_pre_mutate_hook(self._capture)

    def _capture(self) -> None:
        if self._armed and self.pre_meta is None:
            self.pre_meta = self.allocator.export_meta()

    def undo(self, close: bool = True) -> None:
        """Rewrite only the dirtied words; restore allocator meta if it
        changed.  With ``close=False`` the delta keeps tracking from the
        restored state (used by the baseline across a resync)."""
        self._armed = False
        self.pool.epoch_undo(self.token, close=close)
        if self.pre_meta is not None:
            self.allocator.import_meta(self.pre_meta)
        if close:
            self.allocator.remove_pre_mutate_hook(self._capture)
        else:
            self.pre_meta = None
            self._armed = True

    def close(self) -> None:
        """Stop tracking without undoing (keeps the current state)."""
        self._armed = False
        self.pool.close_epoch(self.token)
        self.allocator.remove_pre_mutate_hook(self._capture)


class _DeltaProbeEngine:
    """Incremental probe engine: O(delta) state movement between probes.

    Keeps one :class:`_ProbeDelta` per applied reversion group; moving
    from probe point ``k`` to ``k'`` applies or undoes only the
    ``|k - k'|`` group deltas in between.  Re-executions run inside their
    own delta and are undone immediately, so every probe point's durable
    image is byte-identical to restoring a full baseline snapshot and
    re-applying the prefix (the oracle in ``tests/oracles``).

    If a re-execution grew the checkpoint log (recording updates can
    evict ring versions the prefix reconstruction depends on), the
    recorded deltas no longer match a fresh application with the current
    log; the engine then rewinds to the baseline and rebuilds the prefix,
    which is exactly the oracle's apply-with-current-log semantics.
    """

    def __init__(self, reverter: "Reverter", groups: List[List[int]]):
        self.r = reverter
        self.groups = groups
        self.pos = 0
        self.baseline = _ProbeDelta(reverter.pool, reverter.allocator)
        self.deltas: List[_ProbeDelta] = []
        self.applied: List[List[int]] = []
        self._log_seq = reverter.log.max_seq()
        self._reexec_delta: Optional[_ProbeDelta] = None

    def _apply_group(self, group: List[int]) -> None:
        self.r._maybe_yield()
        delta = _ProbeDelta(self.r.pool, self.r.allocator)
        seqs: List[int] = []
        for s in sorted(group, reverse=True):
            if self.r.revert_update_seq(s, 1, guard_dangling=True):
                seqs.append(s)
        self.deltas.append(delta)
        self.applied.append(seqs)
        self.pos += 1

    def _undo_group(self) -> None:
        self.r._maybe_yield()
        self.deltas.pop().undo()
        self.applied.pop()
        self.pos -= 1

    def _rewind(self) -> None:
        while self.deltas:
            self._undo_group()
        self.baseline.undo(close=False)

    def seek(self, k: int) -> List[int]:
        if self.r.log.max_seq() != self._log_seq:
            self._rewind()
            self._log_seq = self.r.log.max_seq()
        while self.pos > k:
            self._undo_group()
        while self.pos < k:
            self._apply_group(self.groups[self.pos])
        return [s for seqs in self.applied for s in seqs]

    def begin_reexec(self) -> None:
        self._reexec_delta = _ProbeDelta(self.r.pool, self.r.allocator)

    def end_reexec(self) -> None:
        if self._reexec_delta is not None:
            self._reexec_delta.undo()
            self._reexec_delta = None

    def abort(self) -> None:
        while self.deltas:
            self._undo_group()
        self.baseline.undo(close=True)

    def finish(self) -> None:
        for delta in reversed(self.deltas):
            delta.close()
        self.baseline.close()


class Reverter:
    """Executes reversion plans against one pool + checkpoint log."""

    def __init__(
        self,
        log: CheckpointLog,
        pool: PMPool,
        allocator: PMAllocator,
        reexec: ReexecFn,
        clock=None,
        reexec_delay: Callable[[], float] = lambda: 4.0,
        revert_cost: float = 0.002,
        max_versions: int = 3,
        max_attempts: int = 200,
        timeout_seconds: float = 600.0,
        forward_seqs_fn: Optional[ForwardSeqsFn] = None,
        known_faults: Optional[Set[int]] = None,
        enable_divergence_repair: bool = True,
        intents: Optional[IntentJournal] = None,
        yield_fn: Optional[Callable[[], None]] = None,
    ):
        self.log = log
        self.pool = pool
        self.allocator = allocator
        self.reexec = reexec
        self.clock = clock if clock is not None else _NullClock()
        self.reexec_delay = reexec_delay
        self.revert_cost = revert_cost
        self.max_versions = max_versions
        self.max_attempts = max_attempts
        self.timeout_seconds = timeout_seconds
        self.forward_seqs_fn = forward_seqs_fn
        #: fault iids already being mitigated; a re-execution failing with
        #: a fault *outside* this set ends the strategy early so the
        #: caller can re-slice from the new fault (detector/reactor cycle)
        self.known_faults = known_faults
        #: divergence repair is only sound before any reversion has been
        #: applied — afterwards the durable state legitimately differs
        #: from the log's reconstruction
        self.enable_divergence_repair = enable_divergence_repair
        #: write-ahead intent journal; when set, rollback cuts become
        #: resumable after a crash (see :class:`IntentJournal`)
        self.intents = intents
        #: cooperative yield point for live serving: the probe engine calls
        #: it per group apply/undo so long host-side seeks (delta
        #: reversion, prefix rebuilds) park the same way long guest
        #: calls do.  Must not touch the pool; ``None`` = run straight.
        self.yield_fn = yield_fn
        #: clock reading when the current strategy started (see _begin)
        self._t0 = self.clock.now

    def _maybe_yield(self) -> None:
        if self.yield_fn is not None:
            self.yield_fn()

    def _is_new_fault(self, outcome: RunOutcome) -> bool:
        return (
            self.known_faults is not None
            and outcome.fault is not None
            and outcome.fault.iid not in self.known_faults
        )

    # ------------------------------------------------------------------
    # low-level reversion primitives
    # ------------------------------------------------------------------
    def _plan_range_before(self, addr: int, size: int, cut_seq: int):
        """Compute the writes reconstructing ``[addr, addr+size)`` as it
        was just before ``cut_seq``; returns ``{addr: value}``.

        The range starts from zeros, then every checkpoint entry
        overlapping it re-applies its newest pre-cut version (oldest
        first, so newer pre-cut writes win).  This handles ranges that
        cover *neighbouring objects* — e.g. a buffer-overflow persist
        that spilled past its own block — which a naive same-entry
        version copy would corrupt.

        Only entries whose versions can reach the range are visited
        (``entries_possibly_overlapping``, the size-class interval
        index); the
        non-overlap filter below stays as the exact check.
        """
        writes = {addr + i: 0 for i in range(size)}
        informed: Set[int] = set()
        overlapping = []
        for entry in self.log.entries_possibly_overlapping(addr, size):
            pre_cut = [v for v in entry.versions if v.seq < cut_seq]
            if not pre_cut and entry.history_evicted and entry.versions:
                # the true pre-cut version was evicted from the ring;
                # floor at the oldest retained version rather than zeros
                # (applied first, so genuine pre-cut data wins over it)
                overlapping.append((-1, entry.address, entry.versions[0]))
                continue
            # apply every pre-cut version in order: versions of one entry
            # may have different sizes (a whole-struct persist followed by
            # field-granular persists share the base address), so the
            # latest alone cannot reconstruct the full range
            for version in pre_cut:
                overlapping.append((version.seq, entry.address, version))
        # (seq, base) pairs are unique, so keying on them reproduces the
        # full-tuple sort without ever comparing Version objects
        for _seq, base, version in sorted(
            overlapping, key=lambda t: (t[0], t[1])
        ):
            if not (base < addr + size and addr < base + version.size):
                continue
            for i, value in enumerate(version.data):
                a = base + i
                if addr <= a < addr + size:
                    writes[a] = value
                    informed.add(a)
        return writes, informed

    def restore_ranges_before(self, ranges, cut_seq: int) -> None:
        """Apply the pre-``cut_seq`` reconstruction of many ranges at once.

        The reconstructed value of a word depends only on ``(word,
        cut_seq)`` — ``_plan_range_before`` picks the newest pre-cut
        version covering it regardless of the queried range — so
        coalescing the ranges is exact.  Adjacent/overlapping ranges are
        merged into maximal spans (never bridging gaps, which would
        zero-fill untouched words), each span is planned once, and every
        pool word is written exactly once.  A rollback cut touching many
        neighbouring objects thus pays one planning pass and one write
        pass instead of one of each per entry.
        """
        spans: List[Tuple[int, int]] = []
        for addr, size in sorted(ranges):
            if size <= 0:
                continue
            if spans and addr <= spans[-1][1]:
                if addr + size > spans[-1][1]:
                    spans[-1] = (spans[-1][0], addr + size)
            else:
                spans.append((addr, addr + size))
        writes: dict = {}
        for lo, hi in spans:
            span_writes, _informed = self._plan_range_before(lo, hi - lo, cut_seq)
            writes.update(span_writes)
        for a, value in writes.items():
            self.pool.durable_write(a, value)

    def _dangling_targets(self, writes) -> List[int]:
        """Restored words that point into freed persistent memory."""
        out: List[int] = []
        for value in writes.values():
            if value and self.pool.contains(value):
                if self.allocator.block_containing(value) is None:
                    out.append(value)
        return out

    def _unfree_covering(self, target: int) -> bool:
        """Revert the free event whose block contains ``target``.

        Installing an old pointer to a since-freed block would let a
        future allocation silently alias live data, so a reversion that
        references freed memory must revert the free as well — the log
        records every free (Section 3.2's intercepted ``free`` calls).
        Newest covering free wins (the block may have been freed and
        reused repeatedly); the log's free-address index answers that
        without sorting the event stream.
        """
        ev = self.log.newest_free_covering(target)
        if ev is None:
            return False
        try:
            self.allocator.unfree(ev.addr, ev.nwords)
            return True
        except AllocationError:
            return False

    def revert_update_seq(
        self, seq: int, steps_back: int = 1, guard_dangling: bool = False
    ) -> bool:
        """Restore the range to its state ``steps_back`` versions earlier.

        Returns False when the sequence number is not a revertible update
        (already evicted from the version ring, not an update, or — with
        ``guard_dangling`` — the reversion would resurrect a pointer to
        freed memory).
        """
        ev = self.log.event(seq)
        if ev is None or ev.kind != "update":
            return False
        entry = self.log.entries.get(ev.addr)
        if entry is None:
            return False
        idx = entry.version_index(seq)
        if idx is None:
            return False
        # reverting k steps from version idx means restoring the state just
        # before version (idx - k + 1); clamp at the oldest retained version
        target_idx = max(idx - steps_back + 1, 0)
        cut_seq = entry.versions[target_idx].seq
        size = max(v.size for v in entry.versions[target_idx : idx + 1])
        writes, informed = self._plan_range_before(entry.address, size, cut_seq)
        has_own_preimage = (
            any(v.seq < cut_seq for v in entry.versions)
            or entry.history_evicted
            or entry.address in informed
        )
        if not has_own_preimage:
            # no recorded version anywhere describes this entry's pre-cut
            # state; the paper only ever copies *recorded* version data,
            # so a blind zero-fill (e.g. un-writing the root object's
            # initialisation) is never attempted
            return False
        if guard_dangling:
            for target in self._dangling_targets(writes):
                if not self._unfree_covering(target):
                    return False  # cannot make the reversion safe; skip it
        for a, value in writes.items():
            self.pool.durable_write(a, value)
        return True

    def tx_closure(self, seq: int) -> List[int]:
        """All update seqs in the same transaction (Section 4.6)."""
        tx_id = self.log.tx_of_seq(seq)
        if not tx_id:
            return [seq]
        members = self.log.seqs_in_tx(tx_id)
        return sorted(set(members) | {seq}, reverse=True)

    def rollback_to_before(self, seq: int) -> List[int]:
        """Time-ordered rollback of every event with seq >= ``seq``.

        Returns the update sequence numbers that were reverted.
        """
        reverted: List[int] = []
        # value updates: reconstruct every range touched at-or-after the
        # cut — found through the event index (any update event >= seq
        # implies the entry retains a version >= seq: eviction only drops
        # the *oldest* versions), so only the log suffix is scanned
        touched: List[tuple] = []
        for addr in self.log.update_addrs_since(seq):
            entry = self.log.entries[addr]
            newer = [v for v in entry.versions if v.seq >= seq]
            if not newer:  # pragma: no cover - see invariant above
                continue
            reverted.extend(v.seq for v in newer)
            touched.append((entry.address, max(v.size for v in entry.versions)))
        # one coalesced planning + write pass over all touched ranges
        # (the linear-scan oracle restores one range per entry, and the
        # pool-image equality tests pin the two paths to identical
        # durable bytes)
        self.restore_ranges_before(touched, seq)
        # allocator events, newest first (the query is seq-ascending)
        for ev in reversed(self.log.alloc_free_events_after(seq - 1)):
            if ev.kind == "free":
                try:
                    self.allocator.unfree(ev.addr, ev.nwords)
                except AllocationError:
                    pass  # range partially reused; best effort
            elif ev.kind == "alloc":
                if self.allocator.is_allocated(ev.addr):
                    try:
                        self.allocator.free(ev.addr)
                    except AllocationError:  # pragma: no cover - defensive
                        pass
        return reverted

    # ------------------------------------------------------------------
    # out-of-band corruption repair
    # ------------------------------------------------------------------
    def _expected_word(self, addr: int) -> Optional[int]:
        """Value the newest checkpoint version says ``addr`` should hold.

        Served by the log's windowed newest-version index; the old scan
        over every version of every entry made ``repair_divergence``
        O(entries x versions) *per word*.
        """
        return self.log.expected_word(addr)

    def repair_divergence(self, plan: ReversionPlan) -> List[int]:
        """Re-apply logged values where durable PM diverges from the log.

        Every value the program persisted went through the checkpoint
        hooks, so the log can reconstruct the last persisted image of any
        logged range.  A durable word that differs from that image was
        corrupted *out of band* — a hardware fault (bit flip) rather than
        a software store.  Restricted to the plan's candidate entries so
        the repair stays within the fault's dependence slice.

        Returns the repaired addresses (empty for pure software faults).
        """
        repaired: List[int] = []
        seen_entries: Set[int] = set()
        for cand in plan.candidates:
            ev = self.log.event(cand.seq)
            if ev is None or ev.addr in seen_entries:
                continue
            seen_entries.add(ev.addr)
            entry = self.log.entries.get(ev.addr)
            if entry is None or not entry.versions:
                continue
            size = max(v.size for v in entry.versions)
            for i in range(size):
                a = entry.address + i
                expected = self._expected_word(a)
                if expected is not None and self.pool.durable_read(a) != expected:
                    self.pool.durable_write(a, expected)
                    repaired.append(a)
        return repaired

    # ------------------------------------------------------------------
    # strategies
    # ------------------------------------------------------------------
    def _try_divergence_repair(self, result: MitigationResult,
                               plan: ReversionPlan) -> Optional[RunOutcome]:
        """Step 0 of both strategies; returns the outcome if it re-executed."""
        if not self.enable_divergence_repair:
            return None
        repaired = self.repair_divergence(plan)
        if not repaired:
            return None
        result.notes = f"repaired {len(repaired)} divergent word(s)"
        return self._attempt(result, len(repaired))

    def mitigate_purge(
        self, plan: ReversionPlan, batch_size: int = 1
    ) -> MitigationResult:
        """Dependency-based purge: revert only dependent entries."""
        result = self._begin("purge")
        if plan.empty:
            result.aborted_empty_plan = True
            return self._finish(result)
        outcome = self._try_divergence_repair(result, plan)
        if outcome is not None and outcome.ok:
            result.recovered = True
            return self._finish(result)
        tried: Set[tuple] = set()
        for steps_back in range(1, self.max_versions + 1):
            batch: List[Candidate] = []
            for cand in plan.candidates:
                batch.append(cand)
                if len(batch) < batch_size and cand is not plan.candidates[-1]:
                    continue
                group: List[int] = []
                for c in batch:
                    for s in self.tx_closure(c.seq):
                        if (s, steps_back) not in tried:
                            tried.add((s, steps_back))
                            group.append(s)
                batch_cands, batch = list(batch), []
                if not group:
                    continue
                faultinject.fire("revert.cut")  # crash between purge groups
                reverted_any = False
                for s in sorted(group, reverse=True):
                    if self.revert_update_seq(s, steps_back, guard_dangling=True):
                        result.reverted_seqs.append(s)
                        reverted_any = True
                if not reverted_any:
                    continue
                faultinject.fire("revert.commit")
                outcome = self._attempt(result, len(group))
                if outcome is None:
                    return self._finish(result)  # budget exhausted
                if not outcome.ok and self._is_new_fault(outcome):
                    result.notes = "stopped: new fault surfaced"
                    return self._finish(result)
                if outcome.ok:
                    extra = self._purge_forward_pass(result, batch_cands, min(group))
                    result.recovered = True
                    if extra:
                        # re-execute once more so recovery runs over the
                        # forward-purged state (and confirms it still works)
                        confirm = self._attempt(result, extra)
                        result.recovered = confirm is not None and confirm.ok
                    return self._finish(result)
        return self._finish(result)

    def _purge_forward_pass(
        self, result: MitigationResult, cands: List[Candidate], cut: int
    ) -> int:
        """Second pass: purge updates that depend on the reverted ones.

        Only *value updates* are purged forward; free/alloc events are
        left alone (undoing frees is rollback-mode territory), which is
        the source of the purge mode's rare semantic inconsistencies.
        """
        if self.forward_seqs_fn is None:
            return 0
        extra: Set[int] = set()
        for cand in cands:
            for dep_seq in self.forward_seqs_fn(cand):
                if dep_seq > cut and dep_seq not in result.reverted_seqs:
                    extra.add(dep_seq)
        reverted = 0
        for s in sorted(extra, reverse=True):
            if self.revert_update_seq(s, 1):
                result.reverted_seqs.append(s)
                self.clock.advance(self.revert_cost)
                reverted += 1
        return reverted

    def mitigate_rollback(self, plan: ReversionPlan) -> MitigationResult:
        """Conservative, time-respecting rollback."""
        result = self._begin("rollback")
        if plan.empty:
            result.aborted_empty_plan = True
            return self._finish(result)
        outcome = self._try_divergence_repair(result, plan)
        if outcome is not None and outcome.ok:
            result.recovered = True
            return self._finish(result)
        cuts: List[int] = []
        seen: Set[int] = set()
        for cand in plan.candidates:
            cut = min(self.tx_closure(cand.seq))
            if cut not in seen:
                seen.add(cut)
                cuts.append(cut)
        for cut in cuts:
            if self.intents is not None and self.intents.is_done(cut):
                # a crashed previous run already applied and tested this
                # cut; re-apply idempotently, skip the re-execution
                reverted = self.rollback_to_before(cut)
                result.reverted_seqs.extend(reverted)
                continue
            faultinject.fire("revert.cut")  # crash between reversion steps
            if self.intents is not None:
                self.intents.begin(cut, mode="rollback")
            reverted = self.rollback_to_before(cut)
            result.reverted_seqs.extend(reverted)
            outcome = self._attempt(result, max(1, len(reverted)))
            faultinject.fire("revert.commit")  # crash after cut, before done
            if outcome is None:
                return self._finish(result)
            recovered = outcome.ok
            if self.intents is not None:
                self.intents.commit(cut, recovered=recovered)
            if not outcome.ok and self._is_new_fault(outcome):
                result.notes = "stopped: new fault surfaced"
                return self._finish(result)
            if recovered:
                result.recovered = True
                return self._finish(result)
        return self._finish(result)

    def mitigate_bisect(self, plan: ReversionPlan) -> MitigationResult:
        """Binary-search reversion (the paper's technical-report variant).

        When slice nodes alias many sequence numbers, one-at-a-time
        reversion pays one re-execution per candidate.  Instead: revert
        *all* candidates once; if that recovers the system, binary-search
        the smallest newest-first prefix that still recovers it, so the
        search is O(log n) re-executions and the final data loss is the
        minimal prefix.  Falls back (returns unrecovered) when even the
        full reversion does not help — the caller can then try purge or
        rollback.

        State moves between probe points through
        :class:`_DeltaProbeEngine`, which keeps per-group undo deltas and
        moves between probe prefixes in O(words dirtied), never replaying
        the pool.

        Probe outcomes are memoized per prefix length, so the final
        ``probe(best)`` (in the seed a guaranteed redundant re-execution)
        and any repeated midpoint only move state, leaving the pool in
        the minimal recovered state.

        After the search the same forward-dependence pass as purge
        reverts updates computed over the discarded prefix.  The pass is
        one PDG hop deep, so — like purge — bisect retains a small risk
        of semantic inconsistency (e.g. shared accounting counters more
        than one hop from the kept candidates).
        """
        result = self._begin("bisect")
        if plan.empty:
            result.aborted_empty_plan = True
            return self._finish(result)
        outcome = self._try_divergence_repair(result, plan)
        if outcome is not None and outcome.ok:
            result.recovered = True
            return self._finish(result)

        groups: List[List[int]] = []
        group_cands: List[Candidate] = []
        seen: Set[int] = set()
        for cand in plan.candidates:
            group = [s for s in self.tx_closure(cand.seq) if s not in seen]
            if group:
                seen.update(group)
                groups.append(group)
                group_cands.append(cand)

        eng = _DeltaProbeEngine(self, groups)
        memo: Dict[int, RunOutcome] = {}
        applied_by_k: Dict[int, List[int]] = {}

        def probe(k: int) -> Optional[RunOutcome]:
            if k in memo:
                eng.seek(k)  # move state only; the outcome is known
                result.last_outcome = memo[k]
                return memo[k]
            applied_by_k[k] = eng.seek(k)
            eng.begin_reexec()
            outcome = self._attempt(result, max(1, len(applied_by_k[k])))
            eng.end_reexec()
            if outcome is not None:
                memo[k] = outcome
            return outcome

        full = probe(len(groups))
        if full is None or not full.ok:
            eng.abort()
            result.notes = "full reversion did not recover; bisect aborted"
            return self._finish(result)
        lo, hi = 1, len(groups)  # smallest k in [1, n] that recovers
        best = len(groups)
        while lo < hi:
            mid = (lo + hi) // 2
            outcome = probe(mid)
            if outcome is None:
                break  # budget exhausted; keep the best known prefix
            if outcome.ok:
                best, hi = mid, mid
            else:
                lo = mid + 1
        # leave the pool in the minimal recovered state; ``best`` is
        # always memoized, so this is a pure state move — no re-execution
        probe(best)
        eng.finish()
        result.recovered = True
        result.reverted_seqs = list(applied_by_k[best])
        result.notes = f"bisect kept {best} of {len(groups)} reversion groups"
        # same consistency pass purge runs: updates forward-dependent on
        # the reverted prefix (e.g. accounting counters incremented over
        # reverted state) are reverted too, else a partial prefix leaves
        # shared words embedding discarded history
        extra = self._purge_forward_pass(
            result, group_cands[:best], min(applied_by_k[best], default=0)
        )
        if extra:
            confirm = self._attempt(result, extra)
            result.recovered = confirm is not None and confirm.ok
        return self._finish(result)

    # ------------------------------------------------------------------
    def _begin(self, mode: str) -> MitigationResult:
        """Start a strategy: records the start time so the result's
        duration covers only *this* run even on a shared clock."""
        # absorb the workload's staged tail in one merge up front, so
        # every query this strategy issues hits fully built indexes
        self.log._flush_staging()
        self._t0 = self.clock.now
        return MitigationResult(recovered=False, mode=mode)

    def _attempt(self, result: MitigationResult, reverted_count: int) -> Optional[RunOutcome]:
        """Charge time, re-execute; None when the budget is exhausted."""
        if result.attempts >= self.max_attempts:
            result.timed_out = True
            return None
        # the re-execution delay is charged to the clock, and _finish
        # reports the clock delta — so it reaches duration_seconds too
        # (the seed added a literal 0.0 here and under-reported Fig. 8)
        self.clock.advance(self.revert_cost * reverted_count)
        self.clock.advance(self.reexec_delay())
        if self.clock.now > self.timeout_seconds:
            result.timed_out = True
            return None
        result.attempts += 1
        outcome = self.reexec()
        result.last_outcome = outcome
        return outcome

    def _finish(self, result: MitigationResult) -> MitigationResult:
        result.duration_seconds = self.clock.now - self._t0
        return result
