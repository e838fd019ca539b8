"""Consistent-hash ring with virtual nodes (Dynamo-style placement).

Replaces the seed cluster's ``key % n_nodes`` routing: each physical
node owns ``vnodes`` points on a 64-bit ring, a key is served by the
first points clockwise from its hash.  Adding or removing one node
remaps only the ~1/N arc it owns instead of reshuffling every key.

Placement is *deterministic*: the ring hashes with a seed-keyed
blake2b, so two processes building the same (nodes, vnodes, seed)
ring route identically — the property every replay-based check in the
cluster sweep rests on.

Two status flags shape routing without moving ring points:

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

    def remove_node(self, node_id: int) -> None:
        self._nodes.discard(node_id)
        self.down.discard(node_id)
        self.demoted.discard(node_id)
        self._points = [(p, n) for (p, n) in self._points if n != node_id]

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

    def undemote(self, node_id: int) -> None:
        self.demoted.discard(node_id)

    def is_down(self, node_id: int) -> bool:
        return node_id in self.down

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def key_point(self, key: int) -> int:
        return _hash64(b"key:%d" % key, self.seed)

    def preference_list(self, key: int) -> List[int]:
        """Every node, in ring-walk order from the key's point.

        Status-blind: this is the *placement* order.  ``primary_for``
        and ``replica_set`` overlay the down/demoted flags on it.
        """
        if not self._points:
            return []
        i = bisect_left(self._points, (self.key_point(key), -1))
        seen: Set[int] = set()
        out: List[int] = []
        n = len(self._points)
        for j in range(n):
            _, nid = self._points[(i + j) % n]
            if nid not in seen:
                seen.add(nid)
                out.append(nid)
                if len(out) == len(self._nodes):
                    break
        return out

    def primary_for(self, key: int) -> Optional[int]:
        """First live, non-demoted preference node (demoted nodes only
        front reads when every live candidate is demoted).  ``None``
        when the whole replica chain is down."""
        live = [n for n in self.preference_list(key) if n not in self.down]
        if not live:
            return None
        for nid in live:
            if nid not in self.demoted:
                return nid
        return live[0]

    def replica_set(self, key: int, r: int) -> List[int]:
        """The primary plus the next live preference nodes, ≤ r total.

        Demoted nodes are replica-eligible — a healed node resumes
        replica duty for its old arc the moment it is marked up.
        """
        primary = self.primary_for(key)
        if primary is None:
            return []
        out = [primary]
        for nid in self.preference_list(key):
            if len(out) >= r:
                break
            if nid in self.down or nid == primary:
                continue
            out.append(nid)
        return out
