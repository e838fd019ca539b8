"""Consistent-hash ring with virtual nodes (Dynamo-style placement).

Replaces the seed cluster's ``key % n_nodes`` routing: each physical
node owns ``vnodes`` points on a 64-bit ring, a key is served by the
first points clockwise from its hash.  Adding or removing one node
remaps only the ~1/N arc it owns instead of reshuffling every key.

Placement is *deterministic*: the ring hashes with a seed-keyed
blake2b, so two processes building the same (nodes, vnodes, seed)
ring route identically — the property every replay-based check in the
cluster sweep rests on.

Each membership change tabulates every ring point's status-blind
preference tuple, so routing a key is one hash and one bisect.  Two
status flags shape routing without moving points or rebuilding it:

* ``down``     — the node is unreachable (crashed or in mitigation).
  It is skipped entirely; the next live preference-list node serves
  as primary, which is how replica *promotion* happens: marking the
  sick node down IS the promotion, per key, with no remapping.
* ``demoted``  — sticky flag set when a healed node rejoins.  A
  demoted node serves as replica but is passed over for primary duty
  (unless every live candidate is demoted), so a freshly re-synced
  pool is not immediately fronting reads.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from typing import Iterable, List, Optional, Set, Tuple


def _hash64(data: bytes, seed: int) -> int:
    h = hashlib.blake2b(
        data, digest_size=8, key=seed.to_bytes(8, "little", signed=True)
    )
    return int.from_bytes(h.digest(), "big")


class HashRing:
    """Seeded consistent-hash ring over integer node ids."""

    def __init__(self, node_ids: Iterable[int], vnodes: int = 64, seed: int = 0):
        self.vnodes = vnodes
        self.seed = seed
        #: sorted (point, node_id) pairs — the ring
        self._points: List[Tuple[int, int]] = []
        self._nodes: Set[int] = set()
        #: the points alone, for bisect, and the preference tuple of
        #: each point (one extra entry: a key past the last point wraps
        #: to the first), rebuilt on every membership change
        self._hashes: List[int] = []
        self._table: List[Tuple[int, ...]] = [()]
        #: keyed once; ``key_point`` copies it per key
        self._key_hasher = hashlib.blake2b(
            digest_size=8, key=seed.to_bytes(8, "little", signed=True)
        )
        self.down: Set[int] = set()
        self.demoted: Set[int] = set()
        for nid in node_ids:
            self.add_node(nid)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_node(self, node_id: int) -> None:
        if node_id in self._nodes:
            return
        self._nodes.add(node_id)
        for v in range(self.vnodes):
            point = _hash64(b"node:%d:%d" % (node_id, v), self.seed)
            insort(self._points, (point, node_id))
        self._build_table()

    def _build_table(self) -> None:
        points = self._points
        n, want = len(points), len(self._nodes)
        table: List[Tuple[int, ...]] = []
        for i in range(n):
            walk: List[int] = []
            for j in range(n):
                nid = points[(i + j) % n][1]
                if nid not in walk:
                    walk.append(nid)
                    if len(walk) == want:
                        break
            table.append(tuple(walk))
        self._hashes = [point for point, _ in points]
        self._table = table + table[:1] if table else [()]

    @property
    def nodes(self) -> Set[int]:
        return set(self._nodes)

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def mark_down(self, node_id: int) -> None:
        self.down.add(node_id)

    def mark_up(self, node_id: int) -> None:
        self.down.discard(node_id)

    def demote(self, node_id: int) -> None:
        self.demoted.add(node_id)

    def is_down(self, node_id: int) -> bool:
        return node_id in self.down

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def key_point(self, key: int) -> int:
        h = self._key_hasher.copy()
        h.update(b"key:%d" % key)
        return int.from_bytes(h.digest(), "big")

    def _placement(self, key: int) -> Tuple[int, ...]:
        return self._table[bisect_left(self._hashes, self.key_point(key))]

    def _primary(self, placement: Tuple[int, ...]) -> Optional[int]:
        down, demoted = self.down, self.demoted
        fallback = None
        for nid in placement:
            if nid in down:
                continue
            if nid not in demoted:
                return nid
            if fallback is None:
                fallback = nid
        return fallback

    def preference_list(self, key: int) -> List[int]:
        """Every node, in ring-walk order from the key's point.

        Status-blind: this is the *placement* order.  ``primary_for``
        and ``replica_set`` overlay the down/demoted flags on it.
        """
        return list(self._placement(key))

    def primary_for(self, key: int) -> Optional[int]:
        """First live, non-demoted preference node (demoted nodes only
        front reads when every live candidate is demoted).  ``None``
        when the whole replica chain is down."""
        return self._primary(self._placement(key))

    def replica_set(self, key: int, r: int) -> List[int]:
        """The primary plus the next live preference nodes, ≤ r total.

        Demoted nodes are replica-eligible — a healed node resumes
        replica duty for its old arc the moment it is marked up.
        """
        placement = self._placement(key)
        primary = self._primary(placement)
        if primary is None:
            return []
        out = [primary]
        down = self.down
        for nid in placement:
            if len(out) >= r:
                break
            if nid in down or nid == primary:
                continue
            out.append(nid)
        return out
