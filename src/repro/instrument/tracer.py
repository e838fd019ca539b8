"""Runtime PM-address trace (paper Section 4.1, ❹).

Records ``<GUID, pmem_address>`` pairs as the instrumented program runs,
one per executed instruction that has a tracing call: a covered gep
(:mod:`repro.instrument.passes`) emits none, and the records of its
carriers hold its addresses.  Like the paper's implementation, records
are buffered in memory and flushed to the durable trace asynchronously;
whatever is still buffered when the process crashes is lost
(``crash()``).

The durable trace is what the Reactor reads: a GUID → address index,
so its size follows the distinct pairs the program
has touched, not the number of records it has emitted.  A caller that
needs the records of one call (a shipped op's slice, the addresses a
recovery run touched) opens a capture with :meth:`PMTrace.mark` and
closes it with :meth:`PMTrace.since`; pairs are held only while a
capture is open.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

Pair = Tuple[str, int]


class PMTrace:
    """Buffered trace of (guid, address) records, kept as an index."""

    def __init__(self, flush_threshold: int = 256):
        self.flush_threshold = flush_threshold
        self._buffer: List[Pair] = []
        #: records made durable so far (flushed, extended or loaded)
        self._durable = 0
        # index over *flushed* records
        self._addrs_by_guid: Dict[str, Set[int]] = {}
        #: open captures by ``id`` of their mark, each collecting the
        #: records made durable since it
        self._captures: Dict[int, List[Pair]] = {}

    # ------------------------------------------------------------------
    def record(self, guid: str, addr: int) -> None:
        """Append one record; flushes automatically past the threshold."""
        self._buffer.append((guid, addr))
        if len(self._buffer) >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        """Write buffered records to the durable trace."""
        if self._buffer:
            self._make_durable(self._buffer)
            self._buffer.clear()

    def extend(self, pairs: List[Pair]) -> None:
        """Append already-durable records in bulk.

        Used when a shipped :class:`ReplicaDelta` installs the primary's
        trace slice on a replica — the records were flushed on the
        primary, so they land directly in the durable trace here.  This
        runs once per (delta, mirror), not the per-record
        ``record``/``flush`` path.
        """
        self._make_durable(pairs)

    def load(self, pairs: List[Pair], emitted: int) -> None:
        """Replace the durable trace wholesale (node rebase).

        Drops the buffer and the index, then installs ``pairs`` (a
        source trace's :meth:`pairs`) as the flushed trace — the
        trace-level analogue of :meth:`PMPool.load_durable`.
        ``emitted`` is the source's ``len``, which this trace's count
        carries on from.  The buffer is cleared in place: a running
        VM segment appends to it directly.
        """
        self._buffer.clear()
        self._addrs_by_guid = {}
        self._make_durable(pairs)
        self._durable = emitted

    def _make_durable(self, pairs: List[Pair]) -> None:
        by_guid = self._addrs_by_guid
        for guid, addr in pairs:
            try:
                by_guid[guid].add(addr)
            except KeyError:
                by_guid[guid] = {addr}
        for tail in self._captures.values():
            tail.extend(pairs)
        self._durable += len(pairs)

    def crash(self) -> None:
        """Drop un-flushed records, as a real crash would."""
        self._buffer.clear()

    # ------------------------------------------------------------------
    def mark(self) -> List[Pair]:
        """Flush, then open a capture of every record made durable from
        here on.  Close it with :meth:`since` — in a ``finally``, so a
        trapping guest cannot leave it open and growing."""
        self.flush()
        tail: List[Pair] = []
        self._captures[id(tail)] = tail
        return tail

    def since(self, mark: List[Pair]) -> List[Pair]:
        """Close the capture ``mark`` opened; return its records in
        emission order.  Records still buffered are not included: flush
        first to take them."""
        self._captures.pop(id(mark), None)
        return mark

    # ------------------------------------------------------------------
    def addresses_for_guid(self, guid: str) -> Set[int]:
        """PM addresses the instruction with ``guid`` touched (flushed records)."""
        return self._addrs_by_guid.get(guid, set())

    def pairs(self) -> List[Pair]:
        """The distinct durable (guid, address) pairs, in index order."""
        return [
            (guid, addr)
            for guid, addrs in self._addrs_by_guid.items()
            for addr in addrs
        ]

    def __len__(self) -> int:
        """Records emitted: durable plus still buffered."""
        return self._durable + len(self._buffer)
