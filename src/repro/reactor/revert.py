"""Reversion execution: one cut loop and its strategies (Section 4.4-4.6).

Each strategy is a *cut source*: a generator that yields :class:`Cut`
objects and is sent each one's re-execution outcome.  One loop,
:meth:`Reverter.run_cuts`, owns the budget, the clock, the ``revert.*``
injection sites, the :class:`IntentJournal`, re-execution and the
verdict.  After the empty-plan abort and divergence repair
(:meth:`Reverter._arthas`), the Arthas sources are:

* **purge** reverts *only* the selected checkpoint entries (expanded to
  their enclosing transactions), then runs a second pass purging
  forward-dependent updates for consistency.  Minimal data loss, small
  risk of semantic inconsistency.
* **rollback** reverts the selected entry *and every log event with a
  higher sequence number* — value updates restored to their last version
  before the cut, frees un-freed, allocations released.  Conservative:
  strictly respects time order.  Its cuts are journaled.
* **bisect** binary-searches the smallest newest-first candidate prefix
  that recovers.

Purge and rollback stop on a new fault; bisect counts it as a failed
probe.  The baselines (:mod:`repro.baselines`) are cut sources too.

Reversions write durable words directly (they model the reactor patching
the pool file offline), so they never re-enter the checkpoint hooks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro import faultinject
from repro.checkpoint.log import CheckpointLog
from repro.detector.monitor import RunOutcome
from repro.errors import AllocationError
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.reactor.plan import Candidate, ReversionPlan

ReexecFn = Callable[[], RunOutcome]
ForwardSeqsFn = Callable[[Candidate], Set[int]]

#: simulated seconds to revert one checkpoint update
REVERT_COST = 0.002


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


@dataclass
class Cut:
    """One cut a source yields to :meth:`Reverter.run_cuts`.  ``apply``
    restores checkpoint seqs (returning those reverted) or a snapshot;
    without one the cut re-executes what its source changed."""

    apply: Optional[Callable[[], Optional[List[int]]]] = None
    #: seconds charged before re-executing; None: REVERT_COST per seq, min 1
    cost: Optional[float] = None
    #: :class:`IntentJournal` key (rollback's cut seq); None: unjournaled
    key: Optional[int] = None
    #: check the budget before applying and always re-execute (baselines);
    #: else a cut the budget stops stays applied, unexecuted
    budget_first: bool = False
    #: a cut that reverted nothing is not re-executed (purge)
    skip_empty: bool = False
    #: apply, take this outcome, do not re-execute (bisect's landing)
    known: Optional[RunOutcome] = None


class BudgetSpent(Exception):
    """Thrown into a cut source when the budget stops one of its cuts; a
    source that catches it may yield more."""


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
    ``|k - k'|`` group deltas in between.  Every seek leaves a fresh
    delta open for the probe's re-execution, which the next seek or
    abort undoes first, so every probe point's durable image is
    byte-identical to restoring a full baseline snapshot and re-applying
    the prefix (the oracle in ``tests/oracles``).

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
        seqs = self.r.revert_each(group, guard_dangling=True)
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
        """Move to probe point ``k``; returns the seqs applied."""
        self._end_reexec()
        if self.r.log.max_seq() != self._log_seq:
            self._rewind()
            self._log_seq = self.r.log.max_seq()
        while self.pos > k:
            self._undo_group()
        while self.pos < k:
            self._apply_group(self.groups[self.pos])
        self._reexec_delta = _ProbeDelta(self.r.pool, self.r.allocator)
        return [s for seqs in self.applied for s in seqs]

    def _end_reexec(self) -> None:
        if self._reexec_delta is not None:
            self._reexec_delta.undo()
            self._reexec_delta = None

    def abort(self) -> None:
        self._end_reexec()
        self._rewind()

    def close(self) -> None:
        """Stop tracking and keep the pool as it is: where the search
        left it, or where a crash that abandoned it did."""
        for delta in (self._reexec_delta, *reversed(self.deltas), self.baseline):
            if delta is not None:
                delta.close()


class Reverter:
    """Executes reversion plans against one pool + checkpoint log; runs
    every mitigation's cuts (pmCRIU's without a log)."""

    def __init__(
        self,
        log: Optional[CheckpointLog],
        pool: PMPool,
        allocator: PMAllocator,
        reexec: ReexecFn,
        clock=None,
        reexec_delay: Callable[[], float] = lambda: 4.0,
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
        #: write-ahead intent journal; when set, keyed cuts (rollback's)
        #: become resumable after a crash (see :class:`IntentJournal`)
        self.intents = intents
        #: cooperative yield point for live serving: the probe engine calls
        #: it per group apply/undo so long host-side seeks (delta
        #: reversion, prefix rebuilds) park the same way long guest
        #: calls do.  Must not touch the pool; ``None`` = run straight.
        self.yield_fn = yield_fn

    def _maybe_yield(self) -> None:
        if self.yield_fn is not None:
            self.yield_fn()

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

    def revert_each(self, seqs, steps_back: int = 1,
                    guard_dangling: bool = False) -> List[int]:
        """Revert each seq, newest first; returns those reverted."""
        return [s for s in sorted(seqs, reverse=True)
                if self.revert_update_seq(s, steps_back, guard_dangling)]

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
    # the cut loop and the Arthas strategies
    # ------------------------------------------------------------------
    def run_cuts(self, mode: str, cuts: Callable[[MitigationResult], Iterator[Cut]]
                 ) -> MitigationResult:
        """Try each cut the source ``cuts(result)`` yields, sending it the
        cut's outcome (None: not re-executed) or throwing
        :class:`BudgetSpent` into it.  The loop records reverted seqs and
        writes ``attempts``, ``timed_out``, ``recovered``, ``last_outcome``.
        """
        result = MitigationResult(recovered=False, mode=mode)
        t0 = self.clock.now
        source = cuts(result)
        try:
            cut = next(source)
            while True:
                try:
                    outcome = self._attempt(result, cut)
                except BudgetSpent as spent:
                    result.timed_out, result.recovered = True, False
                    cut = source.throw(spent)
                    continue
                if outcome is not None:
                    result.last_outcome, result.recovered = outcome, outcome.ok
                cut = source.send(outcome)
        except (StopIteration, BudgetSpent):
            pass
        finally:
            source.close()  # a crash abandons the source: let it clean up
        result.duration_seconds = self.clock.now - t0
        return result

    def _attempt(self, result: MitigationResult, cut: Cut) -> Optional[RunOutcome]:
        """One cut, in order: budget (``budget_first``), journal done
        check, ``revert.cut``, journal begin, apply, attempt budget,
        clock, timeout (other cuts), re-execution, ``revert.commit``,
        journal commit."""
        if cut.known is not None:
            cut.apply()
            return cut.known
        if cut.budget_first and (result.attempts >= self.max_attempts
                                 or self.clock.now > self.timeout_seconds):
            raise BudgetSpent
        journal = self.intents if cut.key is not None else None
        if journal is not None and journal.is_done(cut.key):
            # a crashed earlier run applied and tested this cut: re-apply
            # it (a pure function of the log), skip its re-execution
            result.reverted_seqs.extend(cut.apply())
            return None
        reverted: List[int] = []
        if cut.apply is not None:
            faultinject.fire("revert.cut")  # crash between cuts
            if journal is not None:
                journal.begin(cut.key, mode=result.mode)
            reverted = cut.apply() or []
            result.reverted_seqs.extend(reverted)
            if cut.skip_empty and not reverted:
                return None
        outcome = None
        if result.attempts < self.max_attempts:
            cost = REVERT_COST * max(1, len(reverted)) if cut.cost is None else cut.cost
            self.clock.advance(cost)
            self.clock.advance(self.reexec_delay())
            if cut.budget_first or self.clock.now <= self.timeout_seconds:
                result.attempts += 1
                outcome = self.reexec()
        if cut.apply is not None:
            faultinject.fire("revert.commit")  # crash after a cut, before done
        if outcome is None:
            raise BudgetSpent
        if journal is not None:
            journal.commit(cut.key, recovered=outcome.ok)
        return outcome

    def mitigate_purge(
        self, plan: ReversionPlan, batch_size: int = 1
    ) -> MitigationResult:
        """Dependency-based purge: revert only dependent entries."""
        return self.run_cuts("purge", partial(
            self._arthas, plan, partial(self._purge, batch_size=batch_size)))

    def mitigate_rollback(self, plan: ReversionPlan) -> MitigationResult:
        """Conservative, time-respecting rollback."""
        return self.run_cuts("rollback", partial(self._arthas, plan, self._rollback))

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

        :class:`_DeltaProbeEngine` moves between probe prefixes in
        O(words dirtied).  No probe point is re-executed twice.

        After the search the same forward-dependence pass as purge
        reverts updates computed over the discarded prefix.  The pass is
        one PDG hop deep, so — like purge — bisect retains a small risk
        of semantic inconsistency (e.g. shared accounting counters more
        than one hop from the kept candidates).
        """
        return self.run_cuts("bisect", partial(self._arthas, plan, self._bisect))

    def _arthas(self, plan: ReversionPlan, strategy, result: MitigationResult):
        """The empty-plan abort and divergence repair (whose
        re-execution fires no injection site), then ``strategy``."""
        # absorb the workload's staged tail in one merge up front, so
        # every query the strategy issues hits fully built indexes
        self.log._flush_staging()
        if plan.empty:
            result.aborted_empty_plan = True
            return
        repaired = self.repair_divergence(plan) if self.enable_divergence_repair else []
        if repaired:
            result.notes = f"repaired {len(repaired)} divergent word(s)"
            try:
                if (yield Cut(cost=REVERT_COST * len(repaired))).ok:
                    return
            except BudgetSpent:
                pass
        yield from strategy(plan, result)

    def _stops(self, outcome: RunOutcome, result: MitigationResult) -> bool:
        """Purge and rollback end on recovery, or on a fault outside
        ``known_faults`` (so the caller can re-slice from it)."""
        if outcome.ok or self.known_faults is None or outcome.fault is None \
                or outcome.fault.iid in self.known_faults:
            return outcome.ok
        result.notes = "stopped: new fault surfaced"
        return True

    def _groups(self, cands: List[Candidate], batch_size: int = 1):
        """Each batch of candidates with its transactions' seqs that no
        earlier batch holds, skipping batches left empty."""
        tried: Set[int] = set()
        for i in range(0, len(cands), batch_size):
            batch = cands[i:i + batch_size]
            group = list(dict.fromkeys(
                s for c in batch for s in self.tx_closure(c.seq) if s not in tried
            ))
            tried.update(group)
            if group:
                yield batch, group

    def _purge(self, plan: ReversionPlan, result: MitigationResult,
               batch_size: int = 1):
        """Each group one ring version back, then two, ... (log depth)."""
        for steps_back in range(1, self.log.max_versions + 1):
            for batch, group in self._groups(plan.candidates, batch_size):
                outcome = yield Cut(
                    partial(self.revert_each, group, steps_back, True),
                    cost=REVERT_COST * len(group), skip_empty=True,
                )
                if outcome is not None and self._stops(outcome, result):
                    if outcome.ok:
                        yield from self._forward_pass(batch, min(group), result)
                    return

    def _rollback(self, plan: ReversionPlan, result: MitigationResult):
        """One journaled cut per candidate transaction's oldest seq."""
        for cut in dict.fromkeys(min(self.tx_closure(c.seq)) for c in plan.candidates):
            outcome = yield Cut(partial(self.rollback_to_before, cut), key=cut)
            if outcome is not None and self._stops(outcome, result):
                return

    def _bisect(self, plan: ReversionPlan, result: MitigationResult):
        batches, groups = zip(*self._groups(plan.candidates))
        eng = _DeltaProbeEngine(self, list(groups))
        applied: Dict[int, List[int]] = {}

        def probe(k: int) -> Cut:
            def seek() -> List[int]:
                applied[k] = eng.seek(k)
                return applied[k]
            return Cut(seek)

        best = len(groups)
        try:
            try:
                won = yield probe(best)
            except BudgetSpent:
                won = None
            if won is None or not won.ok:
                eng.abort()
                result.reverted_seqs = []
                result.notes = "full reversion did not recover; bisect aborted"
                return
            lo, hi = 1, best  # smallest k in [1, n] that recovers
            try:
                while lo < hi:
                    mid = (lo + hi) // 2
                    outcome = yield probe(mid)
                    if outcome.ok:
                        best, hi, won = mid, mid, outcome
                    else:
                        lo = mid + 1
            except BudgetSpent:
                pass  # keep the best known prefix
            # leave the pool in the minimal recovered state
            yield Cut(partial(eng.seek, best), known=won)
        finally:
            eng.close()
        # the probes' seqs were recorded; only the kept prefix counts
        result.reverted_seqs = list(applied[best])
        result.notes = f"bisect kept {best} of {len(groups)} reversion groups"
        # purge's consistency pass: a partial prefix would leave shared
        # words (e.g. counters) embedding discarded history
        yield from self._forward_pass(
            [c for b in batches[:best] for c in b],
            min(applied[best], default=0), result,
        )

    def _forward_pass(self, cands: List[Candidate], cut: int,
                      result: MitigationResult):
        """Second pass of purge and bisect: revert the updates after
        ``cut`` that depend on the kept candidates, charging each as it
        goes, then re-execute once more over the forward-purged state.

        Only *value updates* are purged forward; free/alloc events are
        left alone (undoing frees is rollback-mode territory), which is
        the source of the purge mode's rare semantic inconsistencies.
        """
        if self.forward_seqs_fn is None:
            return
        extra = {
            dep for cand in cands for dep in self.forward_seqs_fn(cand)
            if dep > cut and dep not in result.reverted_seqs
        }
        reverted = self.revert_each(extra)
        result.reverted_seqs.extend(reverted)
        for _ in reverted:
            self.clock.advance(REVERT_COST)
        if reverted:
            yield Cut(cost=REVERT_COST * len(reverted))
