"""The versioned checkpoint log (paper Figure 5).

One :class:`CheckpointEntry` per persisted PM address range; each entry
keeps the last ``MAX_VERSIONS`` versions of the range's data together
with the atomic sequence number that orders all PM updates by logical
time.  Transaction begin/commit marks and alloc/free events share the
same sequence space so the reactor can group and order reversions.

Staged index maintenance
------------------------

The ``record_*`` hooks sit on *every* durable write, so they must cost
as close to an append as possible.  They therefore write nothing but
a flat staging buffer — one interleaved ``array('Q')`` holding
``(kind, addr, size, tx)`` per record (sequence numbers are implicit:
the staged records are exactly the last ``n`` seqs issued, so the merge
re-derives them from ``next_seq``) — plus one shared **word slab**
holding the version data of every staged update back to back (a plain
list: guest words are unbounded Python ints).  No :class:`Version`, no
:class:`LogEvent`, no index touch, no checksum on the hot path.

The merged event stream stays columnar too: a seq column
(``array('Q')``, ascending) beside a row column holding the same
stride-4 ``(kind, addr, size, tx)`` rows the staging buffer holds, which
the merge appends wholesale.  No log keeps a Python object per event;
:class:`LogEvent` objects are built only for what a query returns (the
``events`` property builds a fresh list on every access).  Transaction
membership is one seq range per transaction id — first and last update
seq plus a member count, in four arrays — and the row column's tx field
answers for the rare transaction whose updates interleave with another's.

The derived indexes absorb the staging tail lazily, in one merge pass
(:meth:`CheckpointLog.flush_staging`), triggered by

* the first query — every reactor-facing query method flushes, and the
  ``entries``/``events``/``tx_members`` attributes are flush-on-access
  properties so even direct consumers (serialization, the linear-scan
  test oracles) always observe the merged log; or
* every ``staging_limit`` records (default ``STAGING_LIMIT`` = 4096),
  bounding the merge latency any single record can hit.

The merge is observably identical to eager maintenance: sequence
numbers are issued eagerly at record time, entries are created in
first-update order, the version ring keeps the newest ``max_versions``
versions, and ``max_size`` grows over *all* staged sizes exactly as
the eager per-record check did.  Version storage stays slab-packed
past the merge: entries hold pending ``(seq, slab, offset, size, tx,
crc)`` rows, checksummed at merge time with one seeded ``crc32``
straight off the slab bytes, and :class:`Version` objects (data tuple
+ dataclass) materialize only when the entry is first queried —
versions evicted while still pending are never materialized at all.
``staging_limit=1`` degenerates to the eager merge cadence and serves
as the equivalence oracle.

Crash-derivability: the staged columns model log records already
durable in the checkpoint region — only the *derived* indexes are
volatile.  The merge fires the ``ckpt.index_merge`` fault-injection
site before touching any state, so an injected crash loses nothing
(staging intact, indexes unchanged) and the post-restart retry
converges; a real crash rebuilds every index from the persisted region
via :meth:`rebuild_indexes`.

Indexes
-------

Every reactor query used to be a linear scan over all entries or all
events, which made mitigation time quadratic in log size.  The merged
indexes are:

* a **size-class interval index** answering "which entries could
  intersect range ``[a, a+s)``": entries are bucketed by the power-of-two
  class of their widest retained version, each bucket a sorted
  base-address list, so a query costs ``O(log n + w)`` per non-empty
  class (at most ``~32`` classes) with ``w`` the matches of *that*
  class.  The seed used one global ``_max_version_size`` window, which a
  single multi-KB persisted range widened for **every** lookup,
  degrading planning toward a full scan; here a huge range only widens
  the window of its own (sparsely populated) class;
* the **seq column** itself — events arrive in sequence order, so
  locating a seq or the start of a tail is a single bisect, and the
  tail queries (``alloc_free_events_after``, ``update_addrs_since``)
  scan the kind/addr columns from there;
* a **free-event address index** (per-base seq columns plus a sorted
  base-address list) answering "newest free covering address ``a``"
  without sorting the whole event stream;
* an incrementally maintained **live-allocation map**, replacing the
  ``O(events)`` replay that ``live_unfreed_allocs`` used to do;
* a windowed **newest-version-covering-word** query (``expected_word``)
  for the reactor's divergence repair.

All queries preserve the exact result (including list/dict ordering) of
the original linear scans; ``tests/oracles/checkpoint.py`` keeps the
scan implementations for equivalence testing.
Deserialized logs (``instrument.artifacts``) install their events
through the ``events`` setter and call
:meth:`CheckpointLog.rebuild_indexes` after populating the raw state.
"""

from __future__ import annotations

import copy
import zlib
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import faultinject
from repro.errors import CheckpointError, CorruptLogError

#: default maximum versions retained per entry (paper default: 3)
MAX_VERSIONS = 3

#: default staging-buffer capacity before an automatic index merge
STAGING_LIMIT = 4096

#: event kinds, by column code
EVENT_KINDS = ("update", "alloc", "free", "tx-begin", "tx-commit")
_KIND_CODES = {name: code for code, name in enumerate(EVENT_KINDS)}
_UPDATE, _ALLOC, _FREE, _TX_BEGIN, _TX_COMMIT = range(5)

#: fields per record in the interleaved staging buffer
_STRIDE = 4


def version_crc(
    addr: int, seq: int, data: Tuple[int, ...], size: int, tx_id: int
) -> int:
    """Checksum binding a version's data to its identity.

    Computed when the version is first observed (for staged recording:
    when the owning entry materializes its pending slab rows) and
    carried through serialization; any later divergence of the data
    words (a bit flip in the checkpoint region) is caught by
    :meth:`CheckpointLog.verify_checksums`.

    The crc runs over the data words as a raw 64-bit array, *seeded*
    with a 32-bit multiplicative mix of the identity fields — seeding
    replaces packing an identity header, so one ``crc32`` call per
    version suffices.  Values outside the signed-64-bit range (guest
    words are unbounded Python ints) fall back to a tagged string
    encoding.
    """
    mix = (
        addr * 0x9E3779B1 + seq * 0x85EBCA77
        + size * 0xC2B2AE3D + tx_id * 0x27D4EB2F
    ) & 0xFFFFFFFF
    try:
        body = array("q", data).tobytes()
    except (OverflowError, TypeError):
        body = ",".join(map(str, data)).encode()
        mix ^= 0x5F5F5F5F  # tag the fallback encoding
    return zlib.crc32(body, mix) & 0xFFFFFFFF


@dataclass(slots=True)
class Version:
    """One version of one address range."""

    seq: int
    data: Tuple[int, ...]
    size: int
    tx_id: int = 0
    #: checksum from :func:`version_crc`; -1 = recorded without one
    #: (reference/seed logs), which the verifier skips
    crc: int = -1


@dataclass(slots=True)
class LogEvent:
    """One entry in the global, sequence-ordered event stream."""

    seq: int
    kind: str  # "update" | "alloc" | "free" | "tx-begin" | "tx-commit"
    addr: int = 0
    nwords: int = 0
    tx_id: int = 0


class CheckpointEntry:
    """Versions of one PM address range, newest last.

    The retained ring is **slab-packed**: the staged merge appends
    lightweight pending rows ``(seq, words, woff, size, tx)``
    referencing the merge's word slab instead of building a
    :class:`Version` (tuple + object + dataclass init) per record.  The
    :attr:`versions` property materializes pending rows on first access
    — reactor queries, verification and serialization all pay that cost
    (including the version crc) once, off the durable write path.  The
    corruption binding is not weakened: every consumer that can observe
    or mutate version data (``verify_checksums``, serialization, the
    bitflip injection) goes through :attr:`versions` first, so the crc
    is always computed from the slab words as recorded, before any
    later divergence.
    """

    __slots__ = (
        "address",
        "_versions",
        "_pending",
        "old_entry",
        "new_entry",
        "max_versions",
        "total_versions",
        "order",
        "max_size",
    )

    def __init__(self, address: int, max_versions: int = MAX_VERSIONS):
        self.address = address
        self._versions: List[Version] = []
        #: slab-packed rows not yet materialized, newest last
        self._pending: List[tuple] = []
        #: address of the pre-realloc incarnation of this object (or None)
        self.old_entry: Optional[int] = None
        #: address this object moved to on realloc (or None)
        self.new_entry: Optional[int] = None
        self.max_versions = max_versions
        #: versions ever recorded; > len(versions) when history was evicted
        self.total_versions = 0
        #: creation rank in the owning log; windowed queries sort matches
        #: by it so results keep the pre-index (dict-insertion) order
        self.order = 0
        #: widest retained version (monotone while recording); drives the
        #: owning log's size-class interval index
        self.max_size = 1

    @property
    def versions(self) -> List[Version]:
        pend = self._pending
        if pend:
            self._pending = []
            vs = self._versions
            addr = self.address
            for seq, words, woff, size, tx in pend:
                data = tuple(words[woff:woff + size])
                vs.append(
                    Version(seq, data, size, tx,
                            version_crc(addr, seq, data, size, tx))
                )
        return self._versions

    @versions.setter
    def versions(self, value: List[Version]) -> None:
        self._versions = value
        self._pending = []

    @property
    def history_evicted(self) -> bool:
        """True when versions older than the retained ring were dropped."""
        return self.total_versions > len(self._versions) + len(self._pending)

    def version_with_seq(self, seq: int) -> Optional[Version]:
        """The retained version recorded at exactly ``seq``, if any."""
        for v in self.versions:
            if v.seq == seq:
                return v
        return None

    def version_index(self, seq: int) -> Optional[int]:
        """Index of the version with sequence number ``seq`` in the ring."""
        for i, v in enumerate(self.versions):
            if v.seq == seq:
                return i
        return None

    def latest(self) -> Optional[Version]:
        """The newest retained version (None for an empty entry)."""
        return self.versions[-1] if self.versions else None

class CheckpointLog:
    """All entries plus the sequence-ordered event stream."""

    def __init__(
        self,
        max_versions: int = MAX_VERSIONS,
        staging_limit: int = STAGING_LIMIT,
    ):
        self.max_versions = max_versions
        #: staged records per automatic merge; 1 = eager (the oracle)
        self.staging_limit = staging_limit
        # ---- staging columns (the durable-write hot path) ----
        #: interleaved flat record buffer, stride ``_STRIDE``:
        #: (kind, addr, size, tx_id) per record.  Sequence numbers are
        #: *derived* at merge time — staged records are exactly the last
        #: ``len//_STRIDE`` seqs issued — so recording appends one
        #: 4-tuple instead of five columns
        self._stage = array("Q")
        #: shared word slab: staged update data, back to back
        self._stage_words: List[int] = []
        # ---- merged state (behind flush-on-access properties) ----
        self._entries: Dict[int, CheckpointEntry] = {}
        #: the merged event stream as two columns: ascending seqs, and
        #: the parallel stride-``_STRIDE`` (kind, addr, size, tx_id) rows
        self._seq_col = array("Q")
        self._row_col = array("Q")
        self._next_seq = 1
        #: transaction ranges: ascending transaction ids and, per id,
        #: its first and last update seq and its update count (count ==
        #: last - first + 1 when no other update interleaves)
        self._tx_ids = array("Q")
        self._tx_first = array("Q")
        self._tx_last = array("Q")
        self._tx_count = array("Q")
        # counters for the data-loss metrics
        self.total_updates = 0
        # ---- derived indexes (synced by flush_staging) ----
        #: size-class interval index: class exponent -> sorted base
        #: addresses of entries whose ``max_size`` fits in ``2**exp``.
        #: An entry in class ``e`` can only intersect ``[lo, hi)`` when
        #: its base lies in ``[lo - 2**e + 1, hi)``
        self._size_class_addrs: Dict[int, List[int]] = {}
        #: entry base address -> its current class exponent
        self._entry_class: Dict[int, int] = {}
        #: free-event seqs grouped by base address, each seq-ascending
        self._frees_by_addr: Dict[int, array] = {}
        #: sorted base addresses of free events
        self._free_addrs: List[int] = []
        #: widest freed block seen so far
        self._max_free_size = 1
        #: alloc'd-and-not-yet-freed blocks, in first-alloc order —
        #: maintained incrementally instead of replaying all events
        self._live_allocs: Dict[int, int] = {}
        #: (addr, Version) pairs removed by :meth:`quarantine_corrupt`
        self.quarantined: List[Tuple[int, Version]] = []
        #: optional capture tap: called with ``(kind, addr, size, tx_id,
        #: values-or-None)`` for every record as it is staged.  The
        #: cluster's delta engine installs it around one primary-side op
        #: to collect the op's exact record stream (staging may auto-merge
        #: mid-op, so reading ``_stage`` afterwards would miss records);
        #: replay the tuples elsewhere with :meth:`replay_record`.
        self.record_tap = None

    # ------------------------------------------------------------------
    # flush-on-access views of the merged state
    # ------------------------------------------------------------------
    @property
    def staging_limit(self) -> int:
        return self._staging_limit

    @staging_limit.setter
    def staging_limit(self, n: int) -> None:
        self._staging_limit = max(1, n)
        #: auto-merge threshold in buffer slots (records × stride)
        self._stage_cap = self._staging_limit * _STRIDE

    @property
    def entries(self) -> Dict[int, CheckpointEntry]:
        if self._stage:
            self.flush_staging()
        return self._entries

    @entries.setter
    def entries(self, value: Dict[int, CheckpointEntry]) -> None:
        self._entries = value

    def _event_rows(self):
        """``(seq, kind, addr, nwords, tx_id)`` per merged event, decoded
        from the columns in seq order (callers have flushed)."""
        names = EVENT_KINDS
        it = iter(self._row_col)
        return (
            (seq, names[kind], addr, size, tx)
            for seq, kind, addr, size, tx in zip(self._seq_col, it, it, it, it)
        )

    @property
    def events(self) -> List[LogEvent]:
        """The merged event stream, built fresh from the columns on
        every access (mutating the list does not touch the log)."""
        if self._stage:
            self.flush_staging()
        return [LogEvent(*row) for row in self._event_rows()]

    @events.setter
    def events(self, value: List[LogEvent]) -> None:
        """Install an event stream as given (the one door for
        deserialized events); :meth:`validate_raw_state` judges it."""
        codes = _KIND_CODES
        self._seq_col = array("Q", [ev.seq for ev in value])
        rows = array("Q")
        for ev in value:
            rows.extend((codes[ev.kind], ev.addr, ev.nwords, ev.tx_id))
        self._row_col = rows

    @property
    def tx_members(self) -> Dict[int, List[int]]:
        """Update seqs per transaction id, built from the ranges on
        every access (mutating the dict does not touch the log)."""
        if self._stage:
            self.flush_staging()
        return {tx: self.seqs_in_tx(tx) for tx in self._tx_ids}

    @tx_members.setter
    def tx_members(self, value: Dict[int, List[int]]) -> None:
        """Install transaction membership as given (deserialization)."""
        ids = sorted(tx for tx, seqs in value.items() if seqs)
        self._tx_ids = array("Q", ids)
        self._tx_first = array("Q", (min(value[tx]) for tx in ids))
        self._tx_last = array("Q", (max(value[tx]) for tx in ids))
        self._tx_count = array("Q", (len(value[tx]) for tx in ids))

    def _tx_slot(self, tx: int, seq: int) -> int:
        """Index of ``tx`` in the range arrays; a new transaction starts
        an empty range at ``seq``."""
        ids = self._tx_ids
        if not ids or tx > ids[-1]:
            i = len(ids)
        else:
            i = bisect_left(ids, tx)
            if ids[i] == tx:
                return i
        ids.insert(i, tx)
        self._tx_first.insert(i, seq)
        self._tx_last.insert(i, seq)
        self._tx_count.insert(i, 0)
        return i

    # ------------------------------------------------------------------
    def _new_entry(self, addr: int) -> CheckpointEntry:
        entry = CheckpointEntry(addr, self.max_versions)
        entry.order = len(self._entries)
        self._entries[addr] = entry
        self._entry_class[addr] = 0
        insort(self._size_class_addrs.setdefault(0, []), addr)
        return entry

    def _reclass_entry(self, entry: CheckpointEntry) -> None:
        """Move an entry to the size class covering its ``max_size``."""
        exp = (entry.max_size - 1).bit_length()
        old = self._entry_class.get(entry.address)
        if old == exp:
            return
        if old is not None:
            addrs = self._size_class_addrs[old]
            addrs.pop(bisect_left(addrs, entry.address))
        self._entry_class[entry.address] = exp
        insort(self._size_class_addrs.setdefault(exp, []), entry.address)

    # ------------------------------------------------------------------
    # the staged record_* hot path (staging inlined: no helper call)
    # ------------------------------------------------------------------
    def record_update(
        self, addr: int, nwords: int, values: List[int], tx_id: int = 0
    ) -> int:
        """Record one persisted range; returns its sequence number."""
        if len(values) != nwords:
            raise CheckpointError(
                f"update at {addr:#x}: {len(values)} values for {nwords} words"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        buf = self._stage
        buf.extend((_UPDATE, addr, nwords, tx_id))
        self._stage_words.extend(values)
        self.total_updates += 1
        if self.record_tap is not None:
            self.record_tap((_UPDATE, addr, nwords, tx_id, tuple(values)))
        if len(buf) >= self._stage_cap:
            self.flush_staging()
        return seq

    def record_alloc(self, addr: int, nwords: int) -> int:
        """Record a PM allocation event; returns its sequence number."""
        seq = self._next_seq
        self._next_seq = seq + 1
        buf = self._stage
        buf.extend((_ALLOC, addr, nwords, 0))
        if self.record_tap is not None:
            self.record_tap((_ALLOC, addr, nwords, 0, None))
        if len(buf) >= self._stage_cap:
            self.flush_staging()
        return seq

    def record_free(self, addr: int, nwords: int) -> int:
        """Record a PM free event; returns its sequence number."""
        seq = self._next_seq
        self._next_seq = seq + 1
        buf = self._stage
        buf.extend((_FREE, addr, nwords, 0))
        if self.record_tap is not None:
            self.record_tap((_FREE, addr, nwords, 0, None))
        if len(buf) >= self._stage_cap:
            self.flush_staging()
        return seq

    def record_tx_begin(self, tx_id: int) -> int:
        """Insert a transaction-begin mark into the event stream."""
        seq = self._next_seq
        self._next_seq = seq + 1
        buf = self._stage
        buf.extend((_TX_BEGIN, 0, 0, tx_id))
        if self.record_tap is not None:
            self.record_tap((_TX_BEGIN, 0, 0, tx_id, None))
        if len(buf) >= self._stage_cap:
            self.flush_staging()
        return seq

    def record_tx_commit(self, tx_id: int) -> int:
        """Insert a transaction-commit mark into the event stream."""
        seq = self._next_seq
        self._next_seq = seq + 1
        buf = self._stage
        buf.extend((_TX_COMMIT, 0, 0, tx_id))
        if self.record_tap is not None:
            self.record_tap((_TX_COMMIT, 0, 0, tx_id, None))
        if len(buf) >= self._stage_cap:
            self.flush_staging()
        return seq

    def replay_record(
        self,
        kind: int,
        addr: int,
        size: int,
        tx_id: int,
        values: Optional[Tuple[int, ...]] = None,
    ) -> int:
        """Append one shipped record tuple (as captured by the tap).

        Sequence numbers are issued by *this* log — replica logs number
        their own streams, since per-node counters legitimately diverge
        (routed lookups and peer recoveries append records on one node
        only).  Returns the issued sequence number.
        """
        if kind == _UPDATE:
            return self.record_update(addr, size, list(values), tx_id)
        if kind == _ALLOC:
            return self.record_alloc(addr, size)
        if kind == _FREE:
            return self.record_free(addr, size)
        if kind == _TX_BEGIN:
            return self.record_tx_begin(tx_id)
        if kind == _TX_COMMIT:
            return self.record_tx_commit(tx_id)
        raise CheckpointError(f"unknown shipped record kind {kind}")

    def clone(self) -> "CheckpointLog":
        """Deep-copy this log (node rebase).

        Flushes staging first so the copy starts merged; the capture tap
        is never carried over.
        """
        self.flush_staging()
        tap, self.record_tap = self.record_tap, None
        try:
            dup = copy.deepcopy(self)
        finally:
            self.record_tap = tap
        return dup

    # ------------------------------------------------------------------
    def flush_staging(self) -> None:
        """Merge the staging tail into the entries, events and indexes.

        Observably identical to having run the eager per-record
        maintenance: same entry creation order, same version rings, same
        ``max_size`` growth, same event stream.  The staged rows join
        the event columns wholesale (one seq range, one array extend);
        the per-record pass only maintains entries, transaction
        membership, live allocations and the free index.  Version data
        stays **slab-packed**: the merge appends pending rows
        referencing the word slab; :class:`Version` objects (tuple +
        dataclass + crc) only materialize when the owning entry is first
        queried.  Versions evicted from the ring while still pending are
        simply dropped — never materialized, never checksummed.

        Fires the ``ckpt.index_merge`` fault-injection site *before*
        mutating anything: an injected crash leaves the staging buffers
        and every index untouched, so the post-restart retry (the spec
        is one-shot) converges on exactly the merged state a
        never-crashed run produces.
        """
        buf = self._stage
        if not buf:
            return
        faultinject.fire("ckpt.index_merge")
        words = self._stage_words
        self._stage = array("Q")
        self._stage_words = []

        # staged records are exactly the last n seqs issued
        seq = self._next_seq - len(buf) // _STRIDE
        self._seq_col.extend(range(seq, self._next_seq))
        self._row_col.extend(buf)

        entries = self._entries
        tx_last, tx_count = self._tx_last, self._tx_count
        cur_tx, slot = 0, -1
        live = self._live_allocs
        frees_by_addr = self._frees_by_addr
        new_entry = self._new_entry
        off = 0
        it = iter(buf)
        for kind, addr, size, tx in zip(it, it, it, it):
            if kind == _UPDATE:
                entry = entries.get(addr)
                if entry is None:
                    entry = new_entry(addr)
                pend = entry._pending
                pend.append((seq, words, off, size, tx))
                entry.total_versions += 1
                vs = entry._versions
                if len(vs) + len(pend) > entry.max_versions:
                    if vs:
                        del vs[0]
                    else:
                        del pend[0]
                if size > entry.max_size:
                    entry.max_size = size
                    self._reclass_entry(entry)
                off += size
                if tx:
                    if tx != cur_tx:
                        cur_tx, slot = tx, self._tx_slot(tx, seq)
                    tx_last[slot] = seq
                    tx_count[slot] += 1
            elif kind == _ALLOC:
                live[addr] = size
            elif kind == _FREE:
                live.pop(addr, None)
                if addr not in frees_by_addr:
                    frees_by_addr[addr] = array("Q")
                    insort(self._free_addrs, addr)
                frees_by_addr[addr].append(seq)
                if size > self._max_free_size:
                    self._max_free_size = size
            seq += 1

    #: the single entry point Reverter/plan call before querying
    _flush_staging = flush_staging

    def link_realloc(self, old_addr: int, new_addr: int) -> None:
        """Connect the two incarnations of a resized object.

        The newest predecessor wins: if ``new_addr`` was already linked
        from a different old incarnation, that incarnation's forward
        link is cleared — otherwise it would dangle (forward links must
        be reciprocated, see :meth:`validate_raw_state`).
        """
        if self._stage:
            self.flush_staging()
        old = self._entries.get(old_addr)
        if old is not None:
            old.new_entry = new_addr
        new = self._entries.get(new_addr)
        if new is None:
            new = self._new_entry(new_addr)
        prev_old = new.old_entry
        if prev_old is not None and prev_old != old_addr:
            stale = self._entries.get(prev_old)
            if stale is not None and stale.new_entry == new_addr:
                stale.new_entry = None
        new.old_entry = old_addr

    # ------------------------------------------------------------------
    def validate_raw_state(self) -> None:
        """Raise :class:`CorruptLogError` when the raw entry/event state
        violates the log's structural invariants.

        Deserialized logs used to be trusted blindly; a corrupt file
        (torn tail, bit rot, a buggy writer) would silently get indexes
        rebuilt over garbage.  Checked invariants:

        * event sequence numbers are strictly increasing and below
          ``next_seq``;
        * each entry's retained versions are seq-ascending, below
          ``next_seq``, and consistent with ``total_versions``;
        * realloc forward links (``new_entry``) target an existing entry
          whose ``old_entry`` points back (backward links may dangle:
          the pre-realloc incarnation may never have been persisted).
        """
        if self._stage:
            self.flush_staging()
        last = 0
        for seq in self._seq_col:
            if seq <= last:
                raise CorruptLogError(
                    f"event stream out of order: seq {seq} after {last}"
                )
            last = seq
        if last >= self._next_seq:
            raise CorruptLogError(
                f"event seq {last} >= next_seq {self._next_seq}"
            )
        for addr, entry in self._entries.items():
            if entry.address != addr:
                raise CorruptLogError(
                    f"entry keyed {addr:#x} claims address {entry.address:#x}"
                )
            prev = 0
            for v in entry.versions:
                if v.seq <= prev:
                    raise CorruptLogError(
                        f"entry {addr:#x}: version seqs out of order "
                        f"({v.seq} after {prev})"
                    )
                if v.seq >= self._next_seq:
                    raise CorruptLogError(
                        f"entry {addr:#x}: version seq {v.seq} >= next_seq "
                        f"{self._next_seq}"
                    )
                prev = v.seq
            if entry.total_versions < len(entry.versions):
                raise CorruptLogError(
                    f"entry {addr:#x}: total_versions {entry.total_versions} "
                    f"< {len(entry.versions)} retained"
                )
            if entry.new_entry is not None:
                target = self._entries.get(entry.new_entry)
                if target is None or target.old_entry != addr:
                    raise CorruptLogError(
                        f"entry {addr:#x}: dangling realloc link to "
                        f"{entry.new_entry:#x}"
                    )

    def rebuild_indexes(self, validate: bool = True) -> None:
        """Recompute every derived index from ``entries`` and the event
        columns (the seq column is primary data, not an index).

        Deserialization (:mod:`repro.instrument.artifacts`) populates the
        raw entry/event state directly; this restores the invariants the
        staged merge maintains.  ``validate`` (default) runs
        :meth:`validate_raw_state` first so a corrupt log raises a
        typed :class:`CorruptLogError` instead of silently getting
        indexes rebuilt over bad state; repair paths that have already
        quarantined what they could pass ``validate=False``.
        """
        if self._stage:
            self.flush_staging()
        if validate:
            self.validate_raw_state()
        self._size_class_addrs = {}
        self._entry_class = {}
        for order, entry in enumerate(self._entries.values()):
            entry.order = order
            entry.max_size = max((v.size for v in entry.versions), default=1)
            exp = (entry.max_size - 1).bit_length()
            self._entry_class[entry.address] = exp
            self._size_class_addrs.setdefault(exp, []).append(entry.address)
        for addrs in self._size_class_addrs.values():
            addrs.sort()
        self._frees_by_addr = {}
        self._max_free_size = 1
        self._live_allocs = {}
        it = iter(self._row_col)
        for seq, kind, addr, size, _tx in zip(self._seq_col, it, it, it, it):
            if kind == _FREE:
                self._frees_by_addr.setdefault(addr, array("Q")).append(seq)
                if size > self._max_free_size:
                    self._max_free_size = size
                self._live_allocs.pop(addr, None)
            elif kind == _ALLOC:
                self._live_allocs[addr] = size
        self._free_addrs = sorted(self._frees_by_addr)

    def _entries_intersecting(self, lo: int, hi: int) -> List[CheckpointEntry]:
        """Entries whose ``[address, address + max_size)`` span can
        intersect ``[lo, hi)``, in creation order.

        One bisect window per non-empty size class: class ``e`` holds
        entries no wider than ``2**e`` words, so only bases in
        ``[lo - 2**e + 1, hi)`` can reach into the query range.  A
        superset filter — an entry's *versions* may be narrower than its
        class bound — and callers re-check exactly per version.
        """
        if self._stage:
            self.flush_staging()
        entries = self._entries
        matches: List[CheckpointEntry] = []
        for exp, addrs in self._size_class_addrs.items():
            i = bisect_left(addrs, lo - (1 << exp) + 1)
            j = bisect_left(addrs, hi, lo=i)
            for a in addrs[i:j]:
                matches.append(entries[a])
        matches.sort(key=lambda e: e.order)
        return matches

    # ------------------------------------------------------------------
    # queries used by the reactor
    # ------------------------------------------------------------------
    def _row_of(self, seq: int) -> int:
        """Row index of the event recorded at ``seq``, or -1 (a bisect
        over the seq column; callers have flushed)."""
        seqs = self._seq_col
        i = bisect_left(seqs, seq)
        if i < len(seqs) and seqs[i] == seq:
            return i
        return -1

    def _event_at(self, i: int) -> LogEvent:
        """Build the :class:`LogEvent` for row ``i`` of the columns."""
        rows = self._row_col
        r = i * _STRIDE
        return LogEvent(self._seq_col[i], EVENT_KINDS[rows[r]], rows[r + 1],
                        rows[r + 2], rows[r + 3])

    def event(self, seq: int) -> Optional[LogEvent]:
        """The event recorded at ``seq`` (None if out of range)."""
        if self._stage:
            self.flush_staging()
        i = self._row_of(seq)
        return self._event_at(i) if i >= 0 else None

    def entries_overlapping(self, addr: int) -> List[CheckpointEntry]:
        """Entries whose latest range covers ``addr``."""
        out = []
        for entry in self._entries_intersecting(addr, addr + 1):
            latest = entry.latest()
            if latest is None:
                continue
            if entry.address <= addr < entry.address + latest.size:
                out.append(entry)
        return out

    def entries_possibly_overlapping(self, addr: int, size: int) -> List[CheckpointEntry]:
        """Entries whose *any* retained version could overlap
        ``[addr, addr+size)`` — a superset filter for range
        reconstruction (callers re-check per version)."""
        return self._entries_intersecting(addr, addr + size)

    def update_seqs_for_address(self, addr: int) -> List[int]:
        """Sequence numbers of all retained versions covering ``addr``."""
        seqs: List[int] = []
        for entry in self.entries_overlapping(addr):
            seqs.extend(v.seq for v in entry.versions)
        return seqs

    def seqs_in_tx(self, tx_id: int) -> List[int]:
        """Update sequence numbers belonging to one transaction,
        ascending.  A contiguous range is returned without touching a
        row; otherwise the range's rows are filtered by kind and tx."""
        if self._stage:
            self.flush_staging()
        ids = self._tx_ids
        i = bisect_left(ids, tx_id)
        if i == len(ids) or ids[i] != tx_id:
            return []
        first, last = self._tx_first[i], self._tx_last[i]
        if self._tx_count[i] == last - first + 1:
            return list(range(first, last + 1))
        seqs = self._seq_col
        lo, hi = bisect_left(seqs, first), bisect_right(seqs, last)
        rows = self._row_col
        return [
            seq for seq, kind, tx in zip(
                seqs[lo:hi],
                rows[lo * _STRIDE:hi * _STRIDE:_STRIDE],
                rows[lo * _STRIDE + 3:hi * _STRIDE:_STRIDE],
            )
            if kind == _UPDATE and tx == tx_id
        ]

    def tx_of_seq(self, seq: int) -> int:
        """Transaction id of an update (0 when not transactional)."""
        if self._stage:
            self.flush_staging()
        i = self._row_of(seq)
        return self._row_col[i * _STRIDE + 3] if i >= 0 else 0

    def max_seq(self) -> int:
        """The newest sequence number issued so far.

        Sequence numbers are issued eagerly at record time, so this
        needs no flush — staged records are already counted.
        """
        return self._next_seq - 1

    def alloc_free_events_after(self, seq: int) -> List[LogEvent]:
        """The alloc and free events with sequence number strictly
        greater than ``seq``, seq-ascending (the rollback's allocator
        pass); the tail's kind column is scanned, and only matches
        become :class:`LogEvent` objects."""
        if self._stage:
            self.flush_staging()
        i = bisect_right(self._seq_col, seq)
        return [
            self._event_at(j)
            for j, kind in enumerate(self._row_col[i * _STRIDE::_STRIDE], i)
            if kind == _ALLOC or kind == _FREE
        ]

    def update_addrs_since(self, seq: int) -> List[int]:
        """Addresses with an update event at-or-after ``seq``, each listed
        once, ordered by the owning entry's creation rank (the order the
        pre-index reactor visited them).

        Addresses without an entry are skipped: a log repaired by
        :func:`~repro.instrument.artifacts.open_and_verify` keeps the
        update events of an entry record it quarantined."""
        if self._stage:
            self.flush_staging()
        r = bisect_left(self._seq_col, seq) * _STRIDE
        rows = self._row_col
        seen = {
            addr for kind, addr in zip(rows[r::_STRIDE], rows[r + 1::_STRIDE])
            if kind == _UPDATE
        }
        entries = self._entries
        addrs = [a for a in seen if a in entries]
        addrs.sort(key=lambda a: entries[a].order)
        return addrs

    def newest_free_covering(self, target: int) -> Optional[LogEvent]:
        """The newest free event whose block contains ``target``."""
        if self._stage:
            self.flush_staging()
        best = -1  # rows ascend with seqs: the newest free has the top row
        rows = self._row_col
        i = bisect_left(self._free_addrs, target - self._max_free_size + 1)
        j = bisect_right(self._free_addrs, target, lo=i)
        for base in self._free_addrs[i:j]:
            for seq in reversed(self._frees_by_addr[base]):
                row = self._row_of(seq)
                if target < base + rows[row * _STRIDE + 2]:
                    best = max(best, row)
                    break
        return self._event_at(best) if best >= 0 else None

    def expected_word(self, addr: int) -> Optional[int]:
        """Value the newest retained version covering ``addr`` holds for
        it (None when no logged range covers the address)."""
        best_seq = -1
        best_val: Optional[int] = None
        for entry in self._entries_intersecting(addr, addr + 1):
            base = entry.address
            for version in entry.versions:
                if base <= addr < base + version.size and version.seq > best_seq:
                    best_seq = version.seq
                    best_val = version.data[addr - base]
        return best_val

    def live_unfreed_allocs(self) -> Dict[int, int]:
        """Blocks with an alloc event and no later free (leak candidates)."""
        if self._stage:
            self.flush_staging()
        return dict(self._live_allocs)

    def live_alloc_covering(self, addr: int) -> Optional[Tuple[int, int]]:
        """``(base, nwords)`` of the live-alloc-map block covering ``addr``.

        The key ↔ address-range join the live-traffic server uses: a
        reversion-plan candidate address is widened to the whole live
        allocation containing it, so quarantine locks cover every word a
        reverted cut may touch inside that object.  Returns None when no
        live (un-freed) allocation covers the address.
        """
        if self._stage:
            self.flush_staging()
        bases = sorted(self._live_allocs)
        i = bisect_right(bases, addr) - 1
        if i < 0:
            return None
        base = bases[i]
        nwords = self._live_allocs[base]
        if base <= addr < base + nwords:
            return (base, nwords)
        return None

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def verify_checksums(self) -> List[Tuple[int, int]]:
        """(address, seq) of retained versions whose data no longer
        matches the checksum recorded with them.

        A mismatch means the checkpoint region itself was corrupted out
        of band (bit flip, torn write) — the version's data must not be
        trusted by reversion.  Versions recorded without a checksum
        (``crc == -1``, e.g. seed-era logs) are skipped.
        """
        if self._stage:
            self.flush_staging()
        bad: List[Tuple[int, int]] = []
        for entry in self._entries.values():
            for v in entry.versions:
                if v.crc >= 0 and version_crc(
                    entry.address, v.seq, v.data, v.size, v.tx_id
                ) != v.crc:
                    bad.append((entry.address, v.seq))
        return bad

    def quarantine_corrupt(self) -> List[Tuple[int, Version]]:
        """Remove checksum-failing versions from the ring (and record
        them in :attr:`quarantined`) instead of letting reversion
        deserialize garbage.

        ``total_versions`` is left untouched, so the entry reports
        ``history_evicted`` and the reverter applies its evicted-history
        floor rather than trusting a hole in the ring.  Returns the
        versions quarantined by this call.
        """
        bad = set(self.verify_checksums())
        if not bad:
            return []
        newly: List[Tuple[int, Version]] = []
        for addr, entry in self._entries.items():
            kept = []
            for v in entry.versions:
                if (addr, v.seq) in bad:
                    newly.append((addr, v))
                else:
                    kept.append(v)
            entry.versions = kept
        self.quarantined.extend(newly)
        self.rebuild_indexes(validate=False)
        return newly
