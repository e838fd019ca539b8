"""A sharded, replicated cluster of PM systems with vector-clock clients.

Each node is one fully-equipped system deployment (its own pool,
allocator, checkpoint log and PM-address trace).  Requests are routed
by a consistent-hash ring (:mod:`repro.distributed.ring`) and every
mutation is recorded in a cluster-wide operation log carrying:

* the issuing client and its vector clock at send time, and
* for *every node that applied it*, the span of checkpoint-log
  sequence numbers the operation produced there.

The per-node sequence spans let the coordinator translate "node i
reverted sequence numbers S" into "these client operations were
discarded" — and, because an op's mirror spans are recorded too, the
cascade can revert an orphan on a demoted node's *mirrors* even while
the demoted node itself is down.  The vector clocks define which other
operations causally depend on the discarded ones.

The log is columnar (:class:`OpLog`): one row per op across byte,
``array('q')`` and per-node span columns, so an op costs array slots,
not Python objects.  :class:`OpRecord` is a two-slot view of one row,
built only for return values and query results.

Routing during a failure: marking a node down on the ring makes the
next live preference node the primary for its keys — replica
promotion is a ring flag, not a data migration.  A healed node is
re-based (:meth:`Cluster.rebase_node`) and rejoins demoted: replica
duty first, primary duty only when the ring has no better candidate.

Physical replication
--------------------

A mutation executes once, on its primary, inside a dirty-word pool
epoch.  The op's word delta, allocator metadata ops, checkpoint record
stream and trace slice are captured as a :class:`ReplicaDelta`, and the
other nodes apply it as raw pool writes plus a record batch — no guest
re-execution.  Deltas are group-committed (``replication_batch`` deltas
per replica round, drained early whenever a node must serve a read or
execute as primary), and every full round truncates the stream at the
lowest ack pointer among live nodes, so it holds only the unacked tail.
A healed node copies the state of a live mirror at the head of the
stream instead of replaying its whole share; nothing caches node state
between heals.

A physical word delta is only byte-exact between nodes whose op
histories are *aligned* — per-node counters (``m_time``), first-fit
allocator layout and checkpoint seqs are all history-dependent — so
every live node mirrors every oplog op in oplog order (``replication``
keeps its routing/ack/vector-clock meaning on the ring, and routed
lookups still touch only their primary).  At ``replication ==
n_nodes`` this is byte-identical per node to re-executing each op on
every node (the oracle in ``tests/oracles``); diverged or rebuilt
nodes are never patched in place but *re-based*: they copy the current
state of a live aligned mirror.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import le
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Type,
)

from repro import faultinject
from repro.distributed.ring import HashRing
from repro.systems.common import ABSENT, SystemAdapter
from repro.systems.memcached import MemcachedAdapter

VectorClock = Tuple[int, ...]

#: deltas per group-commit round when ``replication_batch`` is unset
DEFAULT_REPLICATION_BATCH = 8

#: op kinds, by column code
OP_KINDS = ("insert", "delete")
_OP_CODES = {name: code for code, name in enumerate(OP_KINDS)}

#: what the key and value columns (``array('q')``) can hold
WORD_MIN, WORD_MAX = -(1 << 63), (1 << 63) - 1

#: rows per backwards window of :meth:`OpLog.surviving_rows_of`
_SCAN_WINDOW = 4096


class ShardUnavailable(RuntimeError):
    """Every node in a key's replica chain is down."""

    def __init__(self, key: int):
        super().__init__(f"no live replica for key {key}")
        self.key = key


def _check_word(what: str, x: int) -> None:
    # the oplog's key and value columns are array('q'); a word they
    # cannot hold must be refused before the guest runs, not after the
    # primary applied it
    if not isinstance(x, int) or not WORD_MIN <= x <= WORD_MAX:
        raise ValueError(
            f"{what} {x!r} does not fit the oplog's signed 64-bit columns"
        )


def _check_dims(a: VectorClock, b: VectorClock) -> None:
    # zip() would silently truncate the longer clock, turning a
    # mixed-topology comparison into a wrong causality verdict
    if len(a) != len(b):
        raise ValueError(
            f"vector clock dimension mismatch: {len(a)} vs {len(b)}"
        )


def vc_leq(a: VectorClock, b: VectorClock) -> bool:
    """Component-wise <= : a happened-before-or-equal b."""
    _check_dims(a, b)
    return all(x <= y for x, y in zip(a, b))


def vc_less(a: VectorClock, b: VectorClock) -> bool:
    """Strict happens-before."""
    return vc_leq(a, b) and a != b


def vc_merge(a: VectorClock, b: VectorClock) -> VectorClock:
    _check_dims(a, b)
    return tuple(map(max, a, b))


def minimal_clocks(clocks: Iterable[VectorClock]) -> List[VectorClock]:
    """The clocks no other clock in ``clocks`` precedes (each kept once).

    A clock strictly after any of ``clocks`` is strictly after one of
    these, so a causality test against a set of clocks needs only its
    minimal ones.  Sorting by component sum visits every clock after
    all the clocks below it.
    """
    minimal: List[VectorClock] = []
    for vc in sorted(clocks, key=sum):
        if not any(vc_leq(m, vc) for m in minimal):
            minimal.append(vc)
    return minimal


class OpRecord:
    """One mutating client request: a view of one :class:`OpLog` row.

    Every field reads the columns live, so a record ``insert`` returned
    shows its mirror spans once they drain.  Two views are equal when
    they name the same row.
    """

    __slots__ = ("_log", "_row")

    def __init__(self, log: "OpLog", row: int):
        self._log = log
        self._row = row

    @property
    def op_id(self) -> int:
        return self._row + 1

    @property
    def client(self) -> int:
        return self._log._client[self._row]

    @property
    def node(self) -> int:
        """Primary node at apply time (first entry of the replica set)."""
        return self._log._node[self._row]

    @property
    def kind(self) -> str:
        """``"insert"`` or ``"delete"``."""
        return OP_KINDS[self._log._kind[self._row]]

    @property
    def key(self) -> int:
        return self._log._key[self._row]

    @property
    def value(self) -> Optional[int]:
        """The stored value for inserts; ``None`` for deletes (a delete
        stores nothing — a ``0`` sentinel would make a stored 0
        ambiguous)."""
        if self._log._kind[self._row]:
            return None
        return self._log._value[self._row]

    @property
    def vc(self) -> VectorClock:
        return self._log.clock(self._row)

    @property
    def spans(self) -> Dict[int, Tuple[int, int]]:
        """node id -> (first_seq, last_seq) on every node that applied
        the op (primary and mirrors; credited again when a healed node
        is re-based), built fresh on each access."""
        log, row = self._log, self._row
        return {nid: log.span(row, nid) for nid in log.span_nodes(row)}

    @property
    def discarded(self) -> bool:
        """Set by the coordinator when recovery discards the op."""
        return bool(self._log._discarded[self._row])

    @discarded.setter
    def discarded(self, value: bool) -> None:
        self._log._discarded[self._row] = 1 if value else 0

    @property
    def reverted_on(self) -> FrozenSet[int]:
        """Nodes where the discard has been physically reverted."""
        return frozenset(self._log._reverted_on.get(self._row, ()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpRecord):
            return NotImplemented
        return self._row == other._row and self._log is other._log

    def __repr__(self) -> str:
        return (
            f"OpRecord(op_id={self.op_id}, client={self.client}, "
            f"node={self.node}, kind={self.kind!r}, key={self.key}, "
            f"value={self.value}, vc={self.vc}, spans={self.spans}, "
            f"discarded={self.discarded})"
        )


class OpLog:
    """The cluster operation log as columns, one row per op.

    Client, primary node and kind are byte columns; key and value are
    ``array('q')`` columns (a delete's value column slot is unused);
    the clocks are one flat ``array('q')`` of stride ``n_clients +
    n_nodes``.  Each node has a span-first and a span-last column:
    seqs start at 1, so first 0 means "no span on this node", and an
    empty span (an op that wrote no checkpoint records) keeps first >
    last.  ``discarded`` is one byte per op, and ``reverted_on`` is
    sparse: only discarded ops ever carry one.

    ``op_id`` is the row index plus 1.  Indexing, slicing and iteration
    yield :class:`OpRecord` views.
    """

    def __init__(self, n_clients: int, n_nodes: int):
        if n_clients > 256 or n_nodes > 256:
            raise ValueError(
                "the oplog keeps client and node ids in byte columns: "
                f"{n_clients} clients / {n_nodes} nodes exceed 256"
            )
        self.dims = n_clients + n_nodes
        self._client = bytearray()
        self._node = bytearray()
        self._kind = bytearray()
        self._key = array("q")
        self._value = array("q")
        self._vc = array("q")
        self._first = [array("q") for _ in range(n_nodes)]
        self._last = [array("q") for _ in range(n_nodes)]
        self._discarded = bytearray()
        #: row -> nodes where its discard was physically reverted; lets
        #: the cascade skip nodes that already reverted, and a rebase
        #: inherits the entries of the mirror it copies
        self._reverted_on: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # the sequence view
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._kind)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [OpRecord(self, row) for row in range(len(self))[index]]
        return OpRecord(self, range(len(self))[index])

    def __iter__(self):
        return (OpRecord(self, row) for row in range(len(self)))

    # ------------------------------------------------------------------
    def append(
        self,
        client: int,
        node: int,
        kind: str,
        key: int,
        value: Optional[int],
        vc: VectorClock,
        spans: Dict[int, Tuple[int, int]],
    ) -> int:
        """Append one op and return its row — the one door a clock
        enters the log by.  A clock of the wrong dimension raises
        instead of being truncated or padded into the column."""
        if len(vc) != self.dims:
            raise ValueError(
                f"vector clock dimension mismatch: {len(vc)} vs {self.dims}"
            )
        row = len(self._kind)
        self._key.append(key)
        self._value.append(0 if value is None else value)
        self._vc.extend(vc)
        self._client.append(client)
        self._node.append(node)
        self._discarded.append(0)
        for firsts, lasts in zip(self._first, self._last):
            firsts.append(0)
            lasts.append(0)
        for nid, (first, last) in spans.items():
            self.set_span(row, nid, first, last)
        # last: the kind column's length is the log's length
        self._kind.append(_OP_CODES[kind])
        return row

    def clock(self, row: int) -> VectorClock:
        base = row * self.dims
        return tuple(self._vc[base:base + self.dims])

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(self, row: int, node: int) -> Optional[Tuple[int, int]]:
        first = self._first[node][row]
        return (first, self._last[node][row]) if first else None

    def set_span(self, row: int, node: int, first: int, last: int) -> None:
        self._first[node][row] = first
        self._last[node][row] = last

    def span_nodes(self, row: int) -> List[int]:
        """Nodes holding a span of the op, ascending."""
        return [nid for nid, firsts in enumerate(self._first) if firsts[row]]

    def rows_on(self, node: int) -> List[int]:
        """Rows of the ops with a span on ``node``, ascending."""
        return [row for row, first in enumerate(self._first[node]) if first]

    def forget_node(self, node: int) -> None:
        """Zero the node's span columns and drop it from every
        ``reverted_on``: its pool no longer holds what they described."""
        n = len(self._kind)
        self._first[node] = array("q", bytes(8 * n))
        self._last[node] = array("q", bytes(8 * n))
        for nodes in self._reverted_on.values():
            nodes.discard(node)

    def copy_node(self, source: int, node: int) -> Tuple[int, int]:
        """Give ``node`` the span columns and reverts of ``source`` (a
        rebase copies its pool).  Returns ``(credited, reverted)``."""
        self._first[node] = array("q", self._first[source])
        self._last[node] = array("q", self._last[source])
        reverted = 0
        for nodes in self._reverted_on.values():
            if source in nodes:
                nodes.add(node)
                reverted += 1
        return len(self._kind) - self._first[source].count(0), reverted

    # ------------------------------------------------------------------
    # discards
    # ------------------------------------------------------------------
    def mark_reverted(self, row: int, node: int) -> None:
        self._reverted_on.setdefault(row, set()).add(node)

    def is_reverted(self, row: int, node: int) -> bool:
        return node in self._reverted_on.get(row, ())

    def surviving_rows_after(self, clocks: List[VectorClock]) -> List[int]:
        """Rows not discarded whose clock is strictly after one of
        ``clocks``, ascending — read straight off the clock column."""
        dims = self.dims
        for m in clocks:
            if len(m) != dims:
                raise ValueError(
                    f"vector clock dimension mismatch: {len(m)} vs {dims}"
                )
        if not clocks:
            return []
        bounds = [array("q", m) for m in clocks]
        vcs = self._vc
        out = []
        for row, gone in enumerate(self._discarded):
            if gone:
                continue
            base = row * dims
            vc = vcs[base:base + dims]
            for m in bounds:
                if m != vc and all(map(le, m, vc)):
                    out.append(row)
                    break
        return out

    def surviving_rows_of(self, key: int) -> Iterator[int]:
        """Rows of the ops on ``key`` that are not discarded, newest
        first.

        The key column is searched backwards one window at a time; the
        search inside a window runs in ``array.index``.
        """
        keys, gone = self._key, self._discarded
        hi = len(keys)
        while hi > 0:
            lo = max(0, hi - _SCAN_WINDOW)
            window = keys[lo:hi]
            window.reverse()
            i = 0
            while True:
                try:
                    i = window.index(key, i)
                except ValueError:
                    break
                row = hi - 1 - i
                if not gone[row]:
                    yield row
                i += 1
            hi = lo


@dataclass
class ReplicaDelta:
    """The physical effect of one op, captured on its primary.

    Applying the pieces to an aligned replica — words as raw durable
    writes, metadata ops via ``replay_alloc``/``replay_free``, records
    via :meth:`CheckpointLog.replay_record` (replica-issued seqs), the
    trace slice in bulk — reproduces the primary's post-state without
    running the guest.
    """

    op_id: int
    kind: str  # "insert" | "delete"
    key: int
    value: Optional[int]
    #: dirty-word delta: addr -> durable post-value (0 = entry absent)
    words: Dict[int, int]
    #: allocator metadata ops, in mutation order (see ``OpTap``)
    meta_ops: List[tuple]
    #: checkpoint records: (kind, addr, size, tx_id, values-or-None)
    records: List[tuple]
    #: PM-address trace slice the op emitted
    trace: List[Tuple[str, int]]
    #: transaction-counter post-value
    tx_next: int


@dataclass
class ShippedDelta:
    """One :class:`ReplicaDelta` in the cluster's delta stream."""

    pos: int  #: global stream position (survives compaction)
    delta: ReplicaDelta
    op: OpRecord


class Cluster:
    """N independent PM nodes behind a consistent-hash ring."""

    def __init__(
        self,
        n_nodes: int = 3,
        n_clients: int = 2,
        adapter_cls: Type[SystemAdapter] = MemcachedAdapter,
        seed: int = 0,
        replication: Optional[int] = None,
        replication_batch: Optional[int] = None,
    ):
        self.replication_batch = (
            DEFAULT_REPLICATION_BATCH
            if replication_batch is None
            else max(1, replication_batch)
        )
        self.seed = seed
        self.nodes: List[SystemAdapter] = []
        for i in range(n_nodes):
            node = adapter_cls(seed=seed + i)
            node.start()
            self.nodes.append(node)
        self.n_clients = n_clients
        self.n_nodes = n_nodes
        self.replication = (
            min(2, n_nodes) if replication is None else min(replication, n_nodes)
        )
        self.ring = HashRing(range(n_nodes), seed=seed)
        #: per-client vector clocks over (clients + nodes) dimensions
        self._dims = n_clients + n_nodes
        self._client_vc: List[List[int]] = [
            [0] * self._dims for _ in range(n_clients)
        ]
        self._node_vc: List[List[int]] = [
            [0] * self._dims for _ in range(n_nodes)
        ]
        self.oplog = OpLog(n_clients, n_nodes)
        #: per-node logical key/value truth (what the node should hold
        #: from *cluster* traffic; node-local trigger traffic maintains
        #: the same dicts through the experiment context alias)
        self.oracles: List[Dict[int, int]] = [{} for _ in range(n_nodes)]
        # ---- delta-replication stream state ----
        #: the unacked tail of the stream, ascending by ``pos``
        self._delta_log: List[ShippedDelta] = []
        #: next stream position to assign
        self._log_pos = 0
        #: truncation horizon: positions < horizon are no longer in
        #: ``_delta_log`` (acked by every live node not awaiting rebase)
        self._horizon = 0
        #: per-node next stream position to apply
        self._applied: Dict[int, int] = {i: 0 for i in range(n_nodes)}
        #: nodes whose pool was rebuilt/diverged and must be re-based
        #: before they may receive deltas again
        self._needs_rebase: Set[int] = set()
        #: enqueues since the last full replica round (group commit)
        self._since_drain = 0

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def node_for(self, key: int) -> Optional[int]:
        """The key's current primary (``None`` if its chain is down)."""
        return self.ring.primary_for(key)

    def replica_nodes_for(self, key: int) -> List[int]:
        return self.ring.replica_set(key, self.replication)

    def is_down(self, node_id: int) -> bool:
        return self.ring.is_down(node_id)

    def keys_for_node(
        self, node_id: int, count: int = 1, start: int = 0
    ) -> List[int]:
        """The first ``count`` integer keys ≥ ``start`` whose primary is
        ``node_id`` — how tests and the sweep aim traffic at one shard
        now that routing is ring-hashed rather than ``key % n``."""
        out: List[int] = []
        key = start
        limit = start + max(1_000_000, count * 1000)
        while len(out) < count:
            if key > limit:
                raise ValueError(f"node {node_id} owns no keys in range")
            if self.ring.primary_for(key) == node_id:
                out.append(key)
            key += 1
        return out

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    def _stamp(self, client: int, node_ids: List[int]) -> VectorClock:
        """Advance and exchange clocks for one client request applied on
        ``node_ids`` (primary first, then replicas).

        Per-shard stamping: the op is an event of its *primary* — the
        client's clock merges with the primary's and the primary's
        component ticks.  Replicas learn the stamp one-way (their clock
        absorbs it without contributing or ticking): they store
        causally-tagged data without serializing against it, so two ops
        on different primaries stay concurrent even when their replica
        sets overlap — yet after a promotion, reads served by the
        replica still inherit the causal history of everything it
        stored, which keeps the orphan cascade sound.
        """
        cvc = self._client_vc[client]
        cvc[client] += 1
        primary = node_ids[0]
        stamped = list(vc_merge(cvc, self._node_vc[primary]))
        stamped[self.n_clients + primary] += 1
        self._client_vc[client] = stamped
        self._node_vc[primary] = list(stamped)
        for nid in node_ids[1:]:
            self._node_vc[nid] = list(vc_merge(self._node_vc[nid], stamped))
        return tuple(stamped)

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def _apply(
        self, client: int, kind: str, key: int, value: Optional[int]
    ) -> OpRecord:
        node_ids = self.replica_nodes_for(key)
        if not node_ids:
            raise ShardUnavailable(key)
        return self._apply_delta(client, kind, key, value, node_ids)

    def _log_op(
        self,
        client: int,
        kind: str,
        key: int,
        value: Optional[int],
        node_ids: List[int],
        spans: Dict[int, Tuple[int, int]],
    ) -> OpRecord:
        """Stamp clocks and append one op row (``spans`` holds at least
        the primary's span)."""
        row = self.oplog.append(
            client, node_ids[0], kind, key, value,
            self._stamp(client, node_ids), spans,
        )
        return OpRecord(self.oplog, row)

    # ------------------------------------------------------------------
    # delta replication
    # ------------------------------------------------------------------
    def _apply_delta(
        self,
        client: int,
        kind: str,
        key: int,
        value: Optional[int],
        node_ids: List[int],
    ) -> OpRecord:
        """Execute once on the primary, capture the physical delta, enqueue.

        The primary must hold the oplog-prefix state before executing
        (it can lag when other primaries enqueued since its last round),
        so its own pending deltas are drained first.  The guest then
        runs inside a dirty-word epoch with the checkpoint-record tap
        and allocator op tap attached; whatever the op persisted —
        complete or torn — is captured and shipped, so the mirrors stay
        aligned with the primary even through a mid-op fault.
        """
        primary = node_ids[0]
        if primary in self._needs_rebase:
            raise RuntimeError(
                f"node {primary} routed as primary while awaiting rebase"
            )
        self._drain_node(primary)
        node = self.nodes[primary]
        log = node.ckpt.log
        records: List[tuple] = []
        meta_ops: List[tuple] = []
        tap = meta_ops.append
        trace = node.trace
        trace_slice: List[Tuple[str, int]] = (
            trace.mark() if trace is not None else []
        )
        token = node.pool.open_epoch()
        first = log.max_seq() + 1
        log.record_tap = records.append
        node.allocator.add_op_tap(tap)
        failure: Optional[BaseException] = None
        try:
            try:
                if kind == "insert":
                    node.insert(key, value)
                    self.oracles[primary][key] = value
                else:
                    node.delete(key)
                    self.oracles[primary].pop(key, None)
                if trace is not None:
                    # a torn op ships only what it flushed before dying
                    trace.flush()
            finally:
                log.record_tap = None
                node.allocator.remove_op_tap(tap)
                if trace is not None:
                    trace.since(trace_slice)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            failure = exc
        last = log.max_seq()
        words = node.pool.capture_epoch_delta(token)
        delta = ReplicaDelta(
            op_id=len(self.oplog) + 1,
            kind=kind,
            key=key,
            value=value,
            words=words,
            meta_ops=meta_ops,
            records=records,
            trace=trace_slice,
            tx_next=node.txman._next_tx_id,
        )
        if failure is not None:
            # torn op: the primary's partial effect is durable damage.
            # Log and ship it anyway so damage assessment sees the op
            # and the mirrors align with the torn state, then re-raise.
            if last >= first or words or meta_ops:
                op = self._log_op(
                    client, kind, key, value, node_ids,
                    {primary: (first, last)},
                )
                self._enqueue(op, delta)
            raise failure
        op = self._log_op(
            client, kind, key, value, node_ids, {primary: (first, last)}
        )
        self._enqueue(op, delta)
        return op

    def _enqueue(self, op: OpRecord, delta: ReplicaDelta) -> None:
        """Append one delta to the stream and group-commit if due."""
        pos = self._log_pos
        self._delta_log.append(ShippedDelta(pos=pos, delta=delta, op=op))
        self._log_pos = pos + 1
        # the primary already holds this delta's effect; it was drained
        # before executing, so its pointer sat exactly at ``pos``
        if self._applied[op.node] == pos:
            self._applied[op.node] = pos + 1
        self._since_drain += 1
        if self._since_drain >= self.replication_batch:
            self.drain()

    def drain(self, node_id: Optional[int] = None) -> int:
        """Apply queued deltas — to one live node, or a full replica round.

        Called automatically every ``replication_batch`` enqueues (group
        commit) and eagerly whenever a node must be current: before it
        serves a routed read, before it executes as primary, and before
        damage assessment walks its spans.  A full round then truncates
        the stream at the lowest pointer among live nodes not awaiting
        rebase, so the stream never holds more than one round.  Returns
        the number of (node, delta) applications performed.
        """
        if node_id is not None:
            if self.ring.is_down(node_id):
                return 0
            return self._drain_node(node_id)
        applied = self._drain_round()
        acked = [
            pointer for nid, pointer in self._applied.items()
            if nid not in self._needs_rebase and not self.ring.is_down(nid)
        ]
        if acked:
            self._truncate(min(acked))
        return applied

    def _drain_round(self) -> int:
        """Drain every live node once; the stream is left untruncated."""
        applied = 0
        for nid in range(self.n_nodes):
            if not self.ring.is_down(nid):
                applied += self._drain_node(nid)
        self._since_drain = 0
        return applied

    def _truncate(self, horizon: int) -> int:
        """Drop stream positions below ``horizon``; returns how many.

        A node whose pointer the cut passes (down, or awaiting rebase)
        can no longer drain and is flagged for rebase.
        """
        cut = horizon - self._horizon
        if cut <= 0:
            return 0
        del self._delta_log[:cut]
        self._horizon = horizon
        for nid, pointer in self._applied.items():
            if pointer < horizon:
                self._needs_rebase.add(nid)
        return cut

    def _drain_node(self, node_id: int) -> int:
        """Apply every queued delta the node has not yet acked.

        Fires the ``cluster.ship_delta`` injection site once per round
        that has work, *before* any delta lands — a crash there leaves
        the node's pointer unadvanced, and the retried round re-applies
        from the same position (idempotently: a delta whose span is
        already recorded for the node is skipped).  A node that tears
        mid-delta is diverged and is flagged for rebase instead of
        being patched further.
        """
        if node_id in self._needs_rebase:
            return 0
        start = self._applied[node_id]
        if start < self._horizon:
            raise RuntimeError(
                f"node {node_id} pointer {start} fell behind compaction "
                f"horizon {self._horizon}; it must be re-based, not drained"
            )
        entries = self._delta_log[start - self._horizon:]
        if not entries:
            return 0
        faultinject.fire("cluster.ship_delta")
        for shipped in entries:
            try:
                self._apply_shipped(node_id, shipped)
            except BaseException:
                self._needs_rebase.add(node_id)
                raise
            self._applied[node_id] = shipped.pos + 1
        return len(entries)

    def _apply_shipped(self, node_id: int, shipped: ShippedDelta) -> None:
        """Install one delta on one aligned mirror — no guest execution."""
        row = shipped.op._row
        if self.oplog.span(row, node_id) is not None:
            return  # crash-retried round: this delta already landed here
        delta = shipped.delta
        node = self.nodes[node_id]
        node.pool.apply_words(delta.words)
        links: List[Tuple[int, int]] = []
        for mop in delta.meta_ops:
            if mop[0] == "alloc":
                _, addr, nwords, site = mop
                node.allocator.replay_alloc(addr, nwords, site=site)
            elif mop[0] == "free":
                node.allocator.replay_free(mop[1])
            else:  # ("realloc", old_addr, new_addr, nwords)
                links.append((mop[1], mop[2]))
        log = node.ckpt.log
        first = log.max_seq() + 1
        for rec in delta.records:
            log.replay_record(*rec)
        last = log.max_seq()
        for old_addr, new_addr in links:
            log.link_realloc(old_addr, new_addr)
        node.txman._next_tx_id = max(node.txman._next_tx_id, delta.tx_next)
        if node.trace is not None:
            node.trace.extend(delta.trace)
        if delta.kind == "insert":
            self.oracles[node_id][delta.key] = delta.value
        else:
            self.oracles[node_id].pop(delta.key, None)
        self.oplog.set_span(row, node_id, first, last)

    def insert(self, client: int, key: int, value: int) -> OpRecord:
        if value == ABSENT:
            raise ValueError(
                f"refusing to store the ABSENT sentinel ({ABSENT}): a "
                "stored -1 would be indistinguishable from a miss"
            )
        _check_word("key", key)
        _check_word("value", value)
        return self._apply(client, "insert", key, value)

    def delete(self, client: int, key: int) -> OpRecord:
        _check_word("key", key)
        return self._apply(client, "delete", key, None)

    def lookup(self, client: int, key: int) -> int:
        """Reads exchange clocks too (they create causal edges)."""
        node_id = self.node_for(key)
        if node_id is None:
            raise ShardUnavailable(key)
        # a delta mirror must be current before it serves a read —
        # group commit may still hold its tail of the stream
        self.drain(node_id)
        value = self.nodes[node_id].lookup(key)
        self._stamp(client, [node_id])
        return value

    # ------------------------------------------------------------------
    # damage assessment
    # ------------------------------------------------------------------
    def ops_overlapping_seqs(self, node_id: int, seqs) -> List[OpRecord]:
        """Operations whose span *on that node* intersects ``seqs``.

        O((|oplog| + |seqs|) log |seqs|): one sorted copy of ``seqs``,
        then a bisect per span on the node's columns for the smallest
        reverted seq >= its start.
        """
        self.drain(node_id)
        ordered = sorted(set(seqs))
        if not ordered:
            return []
        log = self.oplog
        n = len(ordered)
        out = []
        for row, (first, last) in enumerate(
            zip(log._first[node_id], log._last[node_id])
        ):
            # first 0: no span here; first > last: the operation wrote
            # no checkpoint records (e.g. a delete of an absent key), so
            # no reverted seq can discard it
            if not first or first > last:
                continue
            i = bisect_left(ordered, first)
            if i < n and ordered[i] <= last:
                out.append(OpRecord(log, row))
        return out

    # ------------------------------------------------------------------
    # rebuild, compaction & rebase
    # ------------------------------------------------------------------
    def rebuild_node(self, node_id: int) -> None:
        """Replace a node's deployment with a fresh pool (re-replication).

        Local mitigation's last resort: the damaged pool is abandoned
        and the spans recorded against it are forgotten.  A fresh pool
        shares no history with the delta stream, so the node is flagged
        and no delta lands until :meth:`rebase_node` re-aligns it from a
        live mirror — no cluster op is lost.  Node-local state that
        never entered the oplog is the fault's blast radius and dies
        with the pool.
        """
        adapter = type(self.nodes[node_id])(seed=self.seed + node_id)
        adapter.start()
        self.nodes[node_id] = adapter
        self.oracles[node_id].clear()
        self.oplog.forget_node(node_id)
        self._needs_rebase.add(node_id)

    def compact(self) -> int:
        """Fold the stream's tail (the handoff step).

        Drains a full replica round without truncating, fires the
        ``cluster.compact`` injection site (after the round, before
        truncation — a crash there leaves the stream untruncated and
        the retried step folds the same tail), then truncates the
        stream at its head.  Nodes whose pointer the new horizon passes
        (down at compaction time) are flagged for rebase.  Returns the
        number of deltas folded — the tail since the last full round,
        since :meth:`drain` truncates the rest; 0 when no aligned live
        node exists.
        """
        self._drain_round()
        if self._aligned_mirror() is None:
            return 0
        faultinject.fire("cluster.compact")
        return self._truncate(self._log_pos)

    def _aligned_mirror(self, exclude: Optional[int] = None) -> Optional[int]:
        """First live node, not awaiting rebase, whose pointer acks the
        whole stream."""
        for nid in range(self.n_nodes):
            if nid == exclude or nid in self._needs_rebase:
                continue
            if self.ring.is_down(nid):
                continue
            if self._applied[nid] == self._log_pos:
                return nid
        return None

    def rebase_node(self, node_id: int) -> Tuple[int, int]:
        """Re-align a healed/rebuilt node by copying a live mirror.

        Instead of re-executing the node's oplog share, a full
        :meth:`drain` brings every live node to the head of the stream
        and the first aligned live mirror's state is copied wholesale —
        pool words, allocator metadata, one checkpoint-log clone,
        transaction counter, trace, oracle.  No copy aliases the
        mirror.  The mirror's reverts come with its state, so any revert
        the node owed while it was down is settled too, and the mirror
        sits at the stream head, so no tail is left to drain.  The
        ``cluster.resync`` injection site fires once per op credited
        from the mirror; a crash mid-rebase retries from scratch (every
        step reinstalls).  Returns ``(credited, reverted)``: ops
        credited to the node and how many of those carry an inherited
        revert.
        """
        self.drain()
        source = self._aligned_mirror(exclude=node_id)
        if source is None:
            raise RuntimeError(
                f"no aligned live mirror to rebase node {node_id} from"
            )
        mirror = self.nodes[source]
        node = self.nodes[node_id]
        node.pool.load_durable(mirror.pool.durable_items())
        node.allocator.import_meta(mirror.allocator.export_meta())
        node.ckpt.log = mirror.ckpt.log.clone()
        node.txman.reset()
        node.txman._next_tx_id = mirror.txman._next_tx_id
        if node.trace is not None:
            mirror.trace.flush()
            node.trace.load(mirror.trace.pairs(), emitted=len(mirror.trace))
        # fresh machine over the installed image; init re-finds the root
        node.restart()
        oracle = self.oracles[node_id]
        oracle.clear()
        oracle.update(self.oracles[source])
        log = self.oplog
        log.forget_node(node_id)
        for _ in log.rows_on(source):
            faultinject.fire("cluster.resync")
        credited, reverted = log.copy_node(source, node_id)
        self._applied[node_id] = self._log_pos
        self._needs_rebase.discard(node_id)
        return (credited, reverted)


class ClusterClient:
    """Convenience wrapper binding a client id to a cluster."""

    def __init__(self, cluster: Cluster, client_id: int):
        self.cluster = cluster
        self.client_id = client_id

    def insert(self, key: int, value: int) -> OpRecord:
        return self.cluster.insert(self.client_id, key, value)

    def delete(self, key: int) -> OpRecord:
        return self.cluster.delete(self.client_id, key)

    def lookup(self, key: int) -> int:
        return self.cluster.lookup(self.client_id, key)

    def derived_insert(self, src_key: int, dst_key: int) -> Optional[OpRecord]:
        """Write ``src_key``'s value plus one to ``dst_key`` — the
        cross-node dependency pattern of the paper's Section 7 example
        (request r2 is computed from request r1's result)."""
        value = self.lookup(src_key)
        if value == ABSENT:
            return None
        return self.insert(dst_key, value + 1)
