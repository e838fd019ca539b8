"""Linear-scan oracles for the checkpoint-log queries and the reactor.

:mod:`repro.checkpoint.log` answers every reactor query from
incrementally maintained indexes, and ``compute_plan`` joins the fault
slice against them through a memoized PDG.  This module keeps the
original (pre-index) full-scan implementations verbatim, so property
tests can assert that every indexed query, range reconstruction,
rollback, mitigation and plan returns results identical (including
ordering) to the scans.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import AnalysisResult
from repro.analysis.slicing import slice_distances
from repro.checkpoint.log import CheckpointEntry, CheckpointLog, LogEvent
from repro.errors import AllocationError
from repro.instrument.guids import GuidMap
from repro.instrument.tracer import PMTrace
from repro.reactor.plan import (
    _VALUE_FLOW_OPS,
    MAX_SLICE_DISTANCE,
    Candidate,
    ReversionPlan,
)
from repro.reactor.revert import Reverter


# ----------------------------------------------------------------------
# query references (the seed's CheckpointLog method bodies)
# ----------------------------------------------------------------------
def entries_overlapping(log: CheckpointLog, addr: int) -> List[CheckpointEntry]:
    out = []
    for entry in log.entries.values():
        latest = entry.latest()
        if latest is None:
            continue
        if entry.address <= addr < entry.address + latest.size:
            out.append(entry)
    return out


def update_seqs_for_address(log: CheckpointLog, addr: int) -> List[int]:
    seqs: List[int] = []
    for entry in entries_overlapping(log, addr):
        seqs.extend(v.seq for v in entry.versions)
    return seqs


def events_after(log: CheckpointLog, seq: int) -> List[LogEvent]:
    return [ev for ev in log.events if ev.seq > seq]


def alloc_free_events_after(log: CheckpointLog, seq: int) -> List[LogEvent]:
    return [ev for ev in events_after(log, seq) if ev.kind in ("alloc", "free")]


def live_unfreed_allocs(log: CheckpointLog) -> Dict[int, int]:
    live: Dict[int, int] = {}
    for ev in log.events:
        if ev.kind == "alloc":
            live[ev.addr] = ev.nwords
        elif ev.kind == "free":
            live.pop(ev.addr, None)
    return live


def expected_word(log: CheckpointLog, addr: int) -> Optional[int]:
    best_seq = -1
    best_val: Optional[int] = None
    for entry in log.entries.values():
        for version in entry.versions:
            if entry.address <= addr < entry.address + version.size:
                if version.seq > best_seq:
                    best_seq = version.seq
                    best_val = version.data[addr - entry.address]
    return best_val


def newest_free_covering(log: CheckpointLog, target: int) -> Optional[LogEvent]:
    for ev in sorted(log.events, key=lambda e: -e.seq):
        if ev.kind == "free" and ev.addr <= target < ev.addr + ev.nwords:
            return ev
    return None


def update_addrs_since(log: CheckpointLog, seq: int) -> List[int]:
    addrs: List[int] = []
    for entry in log.entries.values():
        if any(v.seq >= seq for v in entry.versions):
            addrs.append(entry.address)
    return addrs


def structural_digest(log: CheckpointLog) -> int:
    """Fingerprint of the *logical* log state.

    Hashes everything a reader can observe — the event stream, every
    entry's retained versions (seq, data, size, tx, crc), realloc
    links, eviction counts, live allocations, free events and
    transaction membership — after merging any staged tail.  Two logs
    with equal digests answer every reactor query identically, so the
    staged write path can be checked against the eager
    (``staging_limit=1``) oracle, and a crash-recovered log against a
    never-crashed run.
    """
    log.flush_staging()
    acc: List[tuple] = [
        ("meta", log._next_seq, log.total_updates),
        ("events", tuple(log._event_rows())),
    ]
    for addr in sorted(log.entries):
        entry = log.entries[addr]
        acc.append((
            "entry", addr, entry.old_entry, entry.new_entry,
            entry.total_versions,
            tuple(
                (v.seq, v.data, v.size, v.tx_id, v.crc)
                for v in entry.versions
            ),
        ))
    acc.append(("live", tuple(sorted(log.live_unfreed_allocs().items()))))
    acc.append(("frees", tuple(
        (a, tuple(seqs)) for a, seqs in sorted(log._frees_by_addr.items())
    )))
    acc.append(("tx", tuple(sorted(
        (tx, tuple(seqs)) for tx, seqs in log.tx_members.items()
    ))))
    return hash(tuple(acc))


# ----------------------------------------------------------------------
# the seed planning join, in the production order
# ----------------------------------------------------------------------
def reference_compute_plan(
    analysis: AnalysisResult,
    guid_map: GuidMap,
    trace: PMTrace,
    log: CheckpointLog,
    fault_iid: int,
) -> ReversionPlan:
    """The seed planning path: re-slice every round (no PDG memoization)
    and join each traced address through the full-entry-table scan.

    The candidates are then ranked the way production ranks them
    (value-flow rank, slice distance, newest first; one per seq; nothing
    past :data:`MAX_SLICE_DISTANCE`): this pins the join, not the order.
    """
    analysis.pdg._dist_cache.clear()
    trace.flush()
    dist = slice_distances(analysis.pdg, fault_iid)
    pm_nodes = {n for n in dist if analysis.pm.is_pm_instr(n)}
    candidates: List[Candidate] = []
    for iid in pm_nodes:
        guid = guid_map.guid_of(iid)
        if guid is None:
            continue
        for addr in trace.addresses_for_guid(guid):
            for seq in update_seqs_for_address(log, addr):
                candidates.append(
                    Candidate(seq=seq, addr=addr, guid=guid, slice_iid=iid)
                )
    best: Dict[int, Tuple[Tuple[int, int], Candidate]] = {}
    for c in candidates:
        d = dist[c.slice_iid]
        if d > MAX_SLICE_DISTANCE:
            continue
        op = analysis.module.instr(c.slice_iid).op
        key = (0 if op in _VALUE_FLOW_OPS else 1, d)
        if c.seq not in best or key < best[c.seq][0]:
            best[c.seq] = (key, c)
    ranked = sorted(best.values(), key=lambda kc: (kc[0], -kc[1].seq))
    return ReversionPlan(
        fault_iid=fault_iid,
        candidates=[c for _key, c in ranked],
        slice_size=len(dist),
        pm_slice_size=len(pm_nodes),
    )


# ----------------------------------------------------------------------
# the seed Reverter's hot paths, verbatim
# ----------------------------------------------------------------------
class LinearScanReverter(Reverter):
    """A :class:`Reverter` running the pre-index full-scan hot paths.

    The byte-identical-pool oracle in the equivalence tests.
    """

    def _plan_range_before(self, addr: int, size: int, cut_seq: int):
        writes = {addr + i: 0 for i in range(size)}
        informed: Set[int] = set()
        overlapping = []
        for entry in self.log.entries.values():
            pre_cut = [v for v in entry.versions if v.seq < cut_seq]
            if not pre_cut and entry.history_evicted and entry.versions:
                overlapping.append((-1, entry.address, entry.versions[0]))
                continue
            for version in pre_cut:
                overlapping.append((version.seq, entry.address, version))
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

    def restore_range_before(self, addr: int, size: int, cut_seq: int) -> None:
        """Apply the pre-``cut_seq`` reconstruction of one range."""
        writes, _informed = self._plan_range_before(addr, size, cut_seq)
        for a, value in writes.items():
            self.pool.durable_write(a, value)

    def _expected_word(self, addr: int) -> Optional[int]:
        return expected_word(self.log, addr)

    def _unfree_covering(self, target: int) -> bool:
        ev = newest_free_covering(self.log, target)
        if ev is None:
            return False
        try:
            self.allocator.unfree(ev.addr, ev.nwords)
            return True
        except AllocationError:
            return False

    def rollback_to_before(self, seq: int) -> List[int]:
        reverted: List[int] = []
        touched: List[tuple] = []
        for entry in self.log.entries.values():
            newer = [v for v in entry.versions if v.seq >= seq]
            if not newer:
                continue
            reverted.extend(v.seq for v in newer)
            touched.append((entry.address, max(v.size for v in entry.versions)))
        for addr, size in touched:
            self.restore_range_before(addr, size, seq)
        for ev in sorted(events_after(self.log, seq - 1), key=lambda e: -e.seq):
            if ev.kind == "free":
                try:
                    self.allocator.unfree(ev.addr, ev.nwords)
                except AllocationError:
                    pass
            elif ev.kind == "alloc":
                if self.allocator.is_allocated(ev.addr):
                    try:
                        self.allocator.free(ev.addr)
                    except AllocationError:  # pragma: no cover - defensive
                        pass
        return reverted
